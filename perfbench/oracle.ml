(* The answer checker: a k-mer position index over the text with direct
   comparison, sharing no code with the program under test. *)

let k = 10

type t = {
  text : string;
  start : int array;  (* bucket b holds pos.(start.(b)) .. pos.(start.(b+1)-1) *)
  pos : int array;    (* k-mer start positions, ascending within a bucket *)
}

let code = function
  | 'a' -> 0 | 'c' -> 1 | 'g' -> 2 | 't' -> 3
  | c -> invalid_arg (Printf.sprintf "Oracle.code %C" c)

let kmer s off len =
  let c = ref 0 in
  for i = off to off + len - 1 do c := (!c lsl 2) lor code s.[i] done;
  !c

let build text =
  let n = String.length text in
  let buckets = 1 lsl (2 * k) in
  let m = max 0 (n - k + 1) in
  let start = Array.make (buckets + 1) 0 in
  let codes = Array.init m (fun p -> kmer text p k) in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) codes;
  for b = 1 to buckets do start.(b) <- start.(b) + start.(b - 1) done;
  let fill = Array.sub start 0 buckets in
  let pos = Array.make m 0 in
  Array.iteri (fun p c -> pos.(fill.(c)) <- p; fill.(c) <- fill.(c) + 1) codes;
  { text; start; pos }

let length t = String.length t.text

(* [s.[off .. off+len)] equals the text at [p]. *)
let matches_at t p s off len =
  p >= 0 && p + len <= String.length t.text
  && (let rec go i = i = len || (t.text.[p + i] = s.[off + i] && go (i + 1)) in
      go 0)

let dna_only s off len =
  let rec go i = i = len || (String.contains Gen.dna s.[off + i] && go (i + 1)) in
  go 0

(* Every start position of [s.[off .. off+len)] in the text, ascending.
   Patterns of at least [k] characters are looked up by their first
   k-mer; shorter ones cover a contiguous range of buckets, plus the
   last [k - 1] text positions, which start no full k-mer. *)
let find t ?(off = 0) ?len s =
  let len = Option.value len ~default:(String.length s - off) in
  let n = String.length t.text in
  if len = 0 then List.init (n + 1) Fun.id
  else if not (dna_only s off len) then []
  else if len >= k then begin
    let b = kmer s off k in
    let acc = ref [] in
    for i = t.start.(b + 1) - 1 downto t.start.(b) do
      let p = t.pos.(i) in
      if matches_at t p s off len then acc := p :: !acc
    done;
    !acc
  end else begin
    let shift = 2 * (k - len) in
    let lo = kmer s off len lsl shift and hi = (kmer s off len + 1) lsl shift in
    let acc = ref [] in
    for i = t.start.(lo) to t.start.(hi) - 1 do acc := t.pos.(i) :: !acc done;
    for p = max 0 (n - k + 1) to n - len do
      if matches_at t p s off len then acc := p :: !acc
    done;
    List.sort_uniq compare !acc
  end

let occurs t ?(off = 0) ?len s =
  let len = Option.value len ~default:(String.length s - off) in
  let n = String.length t.text in
  let tail () =
    let rec go p = p <= n - len && (matches_at t p s off len || go (p + 1)) in
    go (max 0 (n - k + 1))
  in
  len = 0
  || dna_only s off len
     && (if len >= k then begin
           let b = kmer s off k in
           let rec go i =
             i < t.start.(b + 1) && (matches_at t t.pos.(i) s off len || go (i + 1))
           in
           go t.start.(b)
         end else begin
           let shift = 2 * (k - len) in
           t.start.((kmer s off len + 1) lsl shift) > t.start.(kmer s off len lsl shift)
           || tail ()
         end)

(* {2 Definition checks} *)

(* [ms] are matching statistics of [q]: [ms.(i)] is the length of the
   longest substring of the text ending at query position [i].  Checks
   entry [i] against the definition: that suffix occurs, and the one a
   character longer does not. *)
let ms_entry_ok t q ms i =
  let l = ms.(i) in
  l >= 0 && l <= i + 1
  && (l = 0 || occurs t q ~off:(i - l + 1) ~len:l)
  && (l = i + 1 || not (occurs t q ~off:(i - l) ~len:(l + 1)))

(* Every [stride]-th entry and the last one; the entries where maximal
   matches end are checked through {!mums_ok}. *)
let ms_sample_ok t q ms ~stride =
  let m = Array.length ms in
  Array.length ms = String.length q
  && (let rec go i = i >= m || (ms_entry_ok t q ms i && go (i + stride)) in
      go 0)
  && (m = 0 || ms_entry_ok t q ms (m - 1))

(* Maximal matches [(query_end, length, data_ends)] of [q] at
   [threshold], given its (sample-checked) matching statistics.  The
   reported query ends must be exactly the right-maximal positions with
   a match of at least [threshold]; each match must occur at every
   reported data end and nowhere else, and no occurrence may extend by
   a character to the left or to the right. *)
let mums_ok t q ms ~threshold mums =
  let m = String.length q and n = length t in
  let expected_ends =
    List.filter
      (fun i -> ms.(i) >= threshold && (i = m - 1 || ms.(i + 1) <= ms.(i)))
      (List.init m Fun.id)
  in
  let one (qe, l, ends) =
    let qs = qe - l + 1 in
    l >= threshold && l = ms.(qe)
    && ends = List.map (fun p -> p + l - 1) (find t q ~off:qs ~len:l)
    && List.for_all
         (fun e ->
           let s = e - l + 1 in
           (qs = 0 || s = 0 || q.[qs - 1] <> t.text.[s - 1])
           && (qe = m - 1 || e = n - 1 || q.[qe + 1] <> t.text.[e + 1]))
         ends
  in
  List.map (fun (qe, _, _) -> qe) mums = expected_ends && List.for_all one mums
