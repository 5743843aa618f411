(* Seeded inputs for the benchmark, generated here rather than through
   the library's own synthetic module, so that a change to the
   program's generators cannot change what the benchmark feeds it.

   Everything is a plain string over "acgt". *)

let dna = "acgt"

(* SplitMix64: a tiny, well-mixed generator with a 64-bit state. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, bound); the modulo bias is below 2^-40 for every
   bound used here. *)
let int r bound =
  Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int bound))

let float r = Int64.to_float (Int64.shift_right_logical (next64 r) 11) /. 9007199254740992.

(* Independent stream for one input, so adding draws to one input
   never shifts another. *)
let derive seed tag = rng ((seed * 1_000_003) lxor Hashtbl.hash tag)

let base r = dna.[int r 4]

let random_dna r len = String.init len (fun _ -> base r)

let geometric r mean =
  let p = 1.0 /. float_of_int mean in
  1 + int_of_float (log (1.0 -. float r) /. log (1.0 -. p))

(* Genome-like DNA: an order-2 Markov background whose 16 contexts each
   favour one successor, interleaved with copies of earlier segments
   (repeat families) carrying point mutations.  A copy starts with
   probability 1/2000 per position; its length is geometric with mean
   200, or 2400 for one copy in 25; 15% of copies are exact and the
   rest substitute 3% of their bases.  The transition table is the same
   for every seed (drawn from a fixed stream), so seeds change the
   sequence but not its composition. *)
let genome r n =
  let table =
    let r = rng 0x5EED in
    Array.init 16 (fun _ ->
        let favoured = int r 4 in
        let w = Array.init 4 (fun i ->
            if i = favoured then 2.5 +. float r else 0.5 +. float r) in
        let total = Array.fold_left ( +. ) 0.0 w in
        let acc = ref 0.0 in
        Array.map (fun x -> acc := !acc +. (x /. total); !acc) w)
  in
  let b = Bytes.create n in
  let code c = String.index dna c in
  let pos = ref 0 in
  let emit c = Bytes.set b !pos c; incr pos in
  while !pos < n do
    if !pos > 64 && int r 2000 = 0 then begin
      let mean = if int r 25 = 0 then 2400 else 200 in
      let rate = if int r 100 < 15 then 0.0 else 0.03 in
      let len = min (min (geometric r mean) !pos) (n - !pos) in
      let src = int r (!pos - len + 1) in
      for i = 0 to len - 1 do
        emit (if float r < rate then base r else Bytes.get b (src + i))
      done
    end else begin
      let ctx =
        if !pos < 2 then 0
        else (code (Bytes.get b (!pos - 2)) * 4) + code (Bytes.get b (!pos - 1))
      in
      let row = table.(ctx) and x = float r in
      let rec pick i = if i = 3 || x < row.(i) then dna.[i] else pick (i + 1) in
      emit (pick 0)
    end
  done;
  Bytes.unsafe_to_string b

let mutate r ~rate s =
  String.map (fun c -> if float r < rate then base r else c) s

(* A pool of [count] patterns, 8 to 31 characters.  Nine in ten are
   substrings of the text: the text is cut into [count] equal strata and
   pattern [i] starts at a random point of stratum [i], so the
   first-occurrence positions, which set the cost of an occurrence
   scan, spread evenly over the text for every seed.  Every tenth is
   uniformly random DNA, mostly absent from the text.  Lengths step
   through 8..31 by 7 (mod 24), so any 24 consecutive patterns take
   every length once. *)
let patterns r text ~count =
  let stratum = (String.length text - 32) / count in
  Array.init count (fun i ->
      let len = 8 + ((i * 7) mod 24) in
      if i mod 10 = 9 then random_dna r len
      else String.sub text ((i * stratum) + int r stratum) len)

(* A related sequence of [len] characters: [pieces] windows taken from
   equal strata of the text, each with 2% point substitutions.  Matches
   of 20 and more characters are common but rarely span a window, and
   the first window lies near the start of the text, so the deferred
   occurrence scan of the maximal matches covers nearly the whole
   backbone for every seed. *)
let related r text ~len ~pieces =
  let piece = len / pieces in
  let stratum = (String.length text - piece) / pieces in
  String.concat ""
    (List.init pieces (fun i ->
         mutate r ~rate:0.02
           (String.sub text ((i * stratum) + int r (stratum - piece + 1)) piece)))
