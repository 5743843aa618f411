(* The SPINE benchmark: one named workload, inputs made from a seed,
   every answer checked, and one JSON result line on stdout.

   A run repeats identical rounds of the workload's operations for the
   measured time, each on an index set up afresh just before it, so that
   set-up times are sampled over the same stretch of time as query
   times.  setup_s is the median of every set-up of the run.  With --trace 0
   it prints the end-to-end metrics, with the program at its defaults.
   With --trace 1 it follows every untraced round with a traced round of
   the same operations, in which the benchmark's own code splits each
   query into its layer calls under spans and reads the program's
   public counters; it prints the per-layer metrics and the tracing
   overhead instead. *)

open Spine
module E = Engine

let now_ns = Tracer.now_ns
let dna = Bioseq.Alphabet.dna
let threshold = 20
let fi = float_of_int

type front = Index | Disk

type workload = {
  name : string;
  front : front;
  n : int;                 (* text characters *)
  contains_per_round : int;
  occ_per_round : int;
  batch_size : int;        (* patterns in the round's run_batch call *)
  related_len : int;       (* related-query characters per round *)
  reps : int;              (* run_batch, matching statistics and maximal
                              matches calls per round *)
}

let workloads =
  [ { name = "dna-query"; front = Index; n = 250_000;
      contains_per_round = 2048; occ_per_round = 64; batch_size = 64;
      related_len = 20_000; reps = 4 };
    { name = "dna-disk"; front = Disk; n = 200_000;
      contains_per_round = 480; occ_per_round = 48; batch_size = 32;
      related_len = 30_000; reps = 3 } ]

(* {1 Inputs and expected answers} *)

type inputs = {
  genome : string;
  oracle : Oracle.t;
  contains : (int array * bool) array;
  occ : (int array * int list) array;
  batch : (int array * int list) array;
  related : string;
  related_seq : Bioseq.Packed_seq.t;
}

(* the related query is cut into windows of this many characters, so a
   longer query averages over more places of the text *)
let related_window = 1000

let codes s = Array.init (String.length s) (fun i -> Bioseq.Alphabet.encode dna s.[i])

let make_inputs w seed =
  let genome = Gen.genome (Gen.derive seed "genome") w.n in
  let oracle = Oracle.build genome in
  let pool tag count = Gen.patterns (Gen.derive seed tag) genome ~count in
  let with_occ = Array.map (fun p -> (codes p, Oracle.find oracle p)) in
  let related =
    Gen.related (Gen.derive seed "related") genome ~len:w.related_len
      ~pieces:(w.related_len / related_window)
  in
  { genome; oracle;
    contains =
      Array.map (fun p -> (codes p, Oracle.occurs oracle p))
        (pool "contains" w.contains_per_round);
    occ = with_occ (pool "occurrences" w.occ_per_round);
    batch = with_occ (pool "batch" w.batch_size);
    related; related_seq = Bioseq.Packed_seq.of_string dna related }

(* {1 Tally and checks} *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* A wrong answer is a failed operation. *)
let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* Guard [ops] operations: an exception fails every one of them, so the
   run is reported incorrect and its times are not taken as fast. *)
let guarded ?(ops = 1) t what f =
  try f ()
  with e ->
    t.attempted <- t.attempted + ops;
    t.failed <- t.failed + ops;
    Printf.eprintf "%s raised %s\n%!" what (Printexc.to_string e)

let batch_ok expected items =
  List.length items = Array.length expected
  && List.for_all2
       (fun (q, exp) (it : E.batch_item) ->
         it.pattern = q && it.count = List.length exp && it.positions = exp)
       (Array.to_list expected) items

let ms_stride = 50

(* Matching statistics and maximal matches are checked by definition
   the first time they are seen; later rounds must reproduce that
   checked answer exactly. *)
type align_ref = { ms : int array; mums : E.mmatch list }

let align_ok inp checked ms mums =
  match !checked with
  | Some r -> r.ms = ms && r.mums = mums
  | None ->
    let ok =
      try
        Oracle.ms_sample_ok inp.oracle inp.related ms ~stride:ms_stride
        && Oracle.mums_ok inp.oracle inp.related ms ~threshold
             (List.map (fun (m : E.mmatch) -> (m.query_end, m.length, m.data_ends)) mums)
      with Invalid_argument _ -> false
    in
    if ok then checked := Some { ms; mums };
    ok

(* {1 Set-up} *)

type setup = {
  total_s : float;
  alloc_bytes : float;
  major_collections : int;
  pool : Pagestore.Buffer_pool.stats option;  (* disk: the build's I/O *)
  device_writes : int;
}

let secs t0 t1 = fi (t1 - t0) /. 1e9

let gc_words () =
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words, s.major_collections)

(* Build the workload's index; returns the engine and what the set-up
   cost. *)
let build w genome =
  Gc.full_major ();
  let words0, major0 = gc_words () in
  let seq = Bioseq.Packed_seq.of_string dna genome in
  let t0 = now_ns () in
  let engine, pool, device_writes =
    match w.front with
    | Index -> (Index.engine (Index.of_seq seq), None, 0)
    | Disk ->
      (* every table access of the build goes through the bounded pool;
         the queries then start on an emptied pool, as on a freshly
         opened disk index *)
      let d = Disk.build seq in
      let pool = Pagestore.Buffer_pool.stats d.pool in
      let writes = (Pagestore.Device.stats d.device).writes in
      Disk.reset_io d;
      (Disk.engine d, Some pool, writes)
  in
  let t1 = now_ns () in
  let words1, major1 = gc_words () in
  (engine,
   { total_s = secs t0 t1;
     alloc_bytes = (words1 -. words0) *. fi (Sys.word_size / 8);
     major_collections = major1 - major0; pool; device_writes })

(* {1 Rounds} *)

(* What one round measured.  Times are nanoseconds, one entry per timed
   call, newest first. *)
type round = {
  mutable contains_ns : int list;  (* untraced: per block of [contains_block w] *)
  occ_ns : int array;              (* per occurrences pattern *)
  mutable batch_ns : int list;
  mutable ms_ns : int list;
  mutable mum_ns : int list;
  (* traced rounds only *)
  mutable pack_ns : int; mutable packs : int;
  mutable descent_ns : int; mutable descents : int;
  mutable scan_ns : int; mutable scans : int;
  mutable batch_first_ns : int; mutable batch_scan_ns : int;  (* summed over reps *)
  contains_prof : Profile.t;
  occ_prof : Profile.t;
  ms_prof : Profile.t;   (* summed over reps *)
  mum_prof : Profile.t;  (* summed over reps *)
  mutable ms_stats : E.match_stats;
  (* untraced rounds only: bytes allocated per contains query (all on
     the minor heap, so read exactly from Gc.minor_words) and per
     matching-statistics character (Gc.allocated_bytes, since its
     result array goes to the major heap) *)
  mutable contains_alloc : float;
  mutable ms_alloc : float;
}

let new_round w =
  { contains_ns = []; occ_ns = Array.make w.occ_per_round 0; batch_ns = []; ms_ns = [];
    mum_ns = []; pack_ns = 0; packs = 0; descent_ns = 0; descents = 0; scan_ns = 0;
    scans = 0; batch_first_ns = 0; batch_scan_ns = 0; contains_prof = Profile.make ();
    occ_prof = Profile.make (); ms_prof = Profile.make (); mum_prof = Profile.make ();
    ms_stats = { nodes_checked = 0; suffixes_checked = 0 };
    contains_alloc = 0.; ms_alloc = 0. }

let sum = List.fold_left ( + ) 0

let total_ns r =
  sum r.contains_ns + Array.fold_left ( + ) 0 r.occ_ns + sum r.batch_ns + sum r.ms_ns
  + sum r.mum_ns

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* A round interleaves its operations, so that every kind is sampled
   over the whole round rather than in one stretch: slot [i] runs a
   block of contains queries and occurrences pattern [i], and every
   [occ_per_round / reps]-th slot also runs a batch, the matching
   statistics and the maximal matches. *)
let schedule w ~contains ~occurrences ~batch_and_align =
  let block = w.contains_per_round / w.occ_per_round in
  let every = w.occ_per_round / w.reps in
  for i = 0 to w.occ_per_round - 1 do
    contains (i * block) ((i + 1) * block);
    occurrences i;
    if (i + 1) mod every = 0 then batch_and_align ()
  done

let contains_block w = w.contains_per_round / w.occ_per_round

let untraced_round w e inp checked tally =
  let r = new_round w in
  let contains lo hi =
    guarded tally "contains" ~ops:(hi - lo) (fun () ->
        let answers = Array.make (hi - lo) false in
        let a0 = Gc.minor_words () in
        let (), dt = timed (fun () ->
            for i = lo to hi - 1 do
              answers.(i - lo) <- E.contains_codes e (fst inp.contains.(i))
            done) in
        r.contains_alloc <- r.contains_alloc +. (Gc.minor_words () -. a0);
        r.contains_ns <- dt :: r.contains_ns;
        Array.iteri (fun i got -> record tally (got = snd inp.contains.(lo + i))) answers)
  in
  let occurrences i =
    let q, exp = inp.occ.(i) in
    guarded tally "occurrences" (fun () ->
        let got, dt = timed (fun () -> E.occurrences e q) in
        r.occ_ns.(i) <- dt;
        record tally (got = exp))
  in
  let batch_and_align () =
    guarded tally "run_batch" (fun () ->
        let items, dt =
          timed (fun () -> E.run_batch e (Array.to_list (Array.map fst inp.batch))) in
        r.batch_ns <- dt :: r.batch_ns;
        record tally (batch_ok inp.batch items));
    guarded tally "align" ~ops:2 (fun () ->
        let a0 = Gc.allocated_bytes () in
        let (ms, _), dt = timed (fun () -> E.matching_statistics e inp.related_seq) in
        r.ms_alloc <- (Gc.allocated_bytes () -. a0) /. fi w.related_len;
        r.ms_ns <- dt :: r.ms_ns;
        let (mums, _), dt =
          timed (fun () -> E.maximal_matches e ~threshold inp.related_seq) in
        r.mum_ns <- dt :: r.mum_ns;
        let ok = align_ok inp checked ms mums in
        record tally ok;
        record tally ok)
  in
  schedule w ~contains ~occurrences ~batch_and_align;
  r.contains_alloc <- r.contains_alloc *. fi (Sys.word_size / 8) /. fi w.contains_per_round;
  r

(* The same operations, each split into the layer calls the program
   makes for it, under spans and inside an execution profile. *)
let traced_round w e inp checked tally tr =
  let r = new_round w in
  let span name f = Tracer.span tr name f in
  let profiled acc f =
    let v, prof = E.profiled e f in
    Profile.absorb acc prof;
    v
  in
  let pattern q =
    let p, dt = span "packed_seq.pattern" (fun () -> E.pattern e q) in
    r.pack_ns <- r.pack_ns + dt;
    r.packs <- r.packs + 1;
    p
  in
  let descent p =
    let f, dt = span "search.descent" (fun () -> E.find_first_pattern e p) in
    r.descent_ns <- r.descent_ns + dt;
    r.descents <- r.descents + 1;
    f
  in
  let starts len buf = List.map (fun x -> x - len) (Array.to_list (Xutil.Int_vec.blit_to_array buf)) in
  let contains lo hi =
    for i = lo to hi - 1 do
      let q, exp = inp.contains.(i) in
      guarded tally "contains" (fun () ->
          let got, dt = span "op.contains" (fun () ->
              profiled r.contains_prof (fun () -> descent (pattern q) <> None)) in
          r.contains_ns <- dt :: r.contains_ns;
          record tally (got = exp))
    done
  in
  let occurrences i =
    let q, exp = inp.occ.(i) in
    guarded tally "occurrences" (fun () ->
        let got, dt = span "op.occurrences" (fun () ->
            profiled r.occ_prof (fun () ->
                match descent (pattern q) with
                | None -> []
                | Some f ->
                  let len = Array.length q in
                  let bufs, ds = span "search.scan" (fun () -> E.occurrences_batch e [| (f, len) |]) in
                  r.scan_ns <- r.scan_ns + ds;
                  r.scans <- r.scans + 1;
                  starts len bufs.(0))) in
        r.occ_ns.(i) <- dt;
        record tally (got = exp))
  in
  let batch_and_align () =
    (* run_batch as the engine runs it: first-occurrence walks, then one
       shared scan over every present pattern *)
    guarded tally "run_batch" (fun () ->
        let items, dt = span "op.run_batch" (fun () ->
            let firsts, df = span "engine.batch_first" (fun () ->
                Array.map (fun (q, _) -> descent (pattern q)) inp.batch) in
            let present =
              List.concat
                (Array.to_list
                   (Array.mapi (fun i f ->
                        match f with
                        | Some f -> [ (f, Array.length (fst inp.batch.(i))) ]
                        | None -> [])
                       firsts))
            in
            let bufs, ds = span "engine.batch_scan" (fun () ->
                E.occurrences_batch e (Array.of_list present)) in
            r.batch_first_ns <- r.batch_first_ns + df;
            r.batch_scan_ns <- r.batch_scan_ns + ds;
            let next = ref 0 in
            Array.to_list
              (Array.mapi
                 (fun i f ->
                   let q = fst inp.batch.(i) in
                   let positions =
                     match f with
                     | None -> []
                     | Some _ -> incr next; starts (Array.length q) bufs.(!next - 1)
                   in
                   { E.pattern = q; count = List.length positions; positions })
                 firsts))
        in
        r.batch_ns <- dt :: r.batch_ns;
        record tally (batch_ok inp.batch items));
    guarded tally "align" ~ops:2 (fun () ->
        let (ms, st), dt = span "engine.matching_statistics" (fun () ->
            profiled r.ms_prof (fun () -> E.matching_statistics e inp.related_seq)) in
        r.ms_ns <- dt :: r.ms_ns;
        r.ms_stats <- st;
        let (mums, _), dt = span "engine.maximal_matches" (fun () ->
            profiled r.mum_prof (fun () -> E.maximal_matches e ~threshold inp.related_seq)) in
        r.mum_ns <- dt :: r.mum_ns;
        let ok = align_ok inp checked ms mums in
        record tally ok;
        record tally ok)
  in
  schedule w ~contains ~occurrences ~batch_and_align;
  r

(* {1 Checker self-test} *)

(* Feed the checks deliberately wrong answers derived from real ones;
   every planted one must be counted as failed, and no real one.  The
   two are tallied apart, so a miss on one side cannot hide a miss on
   the other. *)
let self_test w e inp =
  let t = tally () and planted = tally () in
  let wrong ok = record planted ok in
  let q0, c0 = inp.contains.(0) in
  record t (E.contains_codes e q0 = c0);
  wrong (E.contains_codes e q0 = not c0);
  (match List.find_opt (fun (_, exp) -> exp <> []) (Array.to_list inp.occ) with
   | Some (q, exp) ->
     let got = E.occurrences e q in
     record t (got = exp);
     wrong (List.filteri (fun i _ -> i > 0) got = exp);
     wrong (got @ [ w.n + 1 ] = exp)
   | None -> ());
  let items = E.run_batch e (Array.to_list (Array.map fst inp.batch)) in
  record t (batch_ok inp.batch items);
  wrong (batch_ok inp.batch
           (List.map (fun (it : E.batch_item) -> { it with count = it.count + 1 }) items));
  let ms, _ = E.matching_statistics e inp.related_seq in
  let mums, _ = E.maximal_matches e ~threshold inp.related_seq in
  let align ms mums = align_ok inp (ref None) ms mums in
  record t (align ms mums);
  let i = 3 * ms_stride in
  let bump d = let a = Array.copy ms in a.(i) <- a.(i) + d; a in
  wrong (align (bump 1) mums);
  if ms.(i) > 0 then wrong (align (bump (-1)) mums);
  (match List.find_opt (fun (m : E.mmatch) -> m.data_ends <> []) mums with
   | Some m ->
     let edit f = List.map (fun x -> if x == m then f x else x) mums in
     wrong (align ms (edit (fun m -> { m with data_ends = List.tl m.data_ends })));
     wrong (align ms (edit (fun m -> { m with length = m.length - 1 })));
     wrong (align ms (List.filter (fun x -> x != m) mums))
   | None -> ());
  (t, planted)

(* {1 Statistics} *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0. then 0. else a /. b

(* {1 Output} *)

let print_result ~correct (t : tally) metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct t.attempted t.failed m

(* {1 Main} *)

(* Every end-to-end time is a median over the run's samples of it, so
   a burst of contention on the host moves few of them.  An occurrences
   query is taken per pattern: the mean over the patterns of each
   pattern's median time. *)
let end_to_end w setups index_bytes_per_char rounds =
  let med f = median (List.concat_map (fun r -> List.map fi (f r)) rounds) in
  let occ_ms =
    Array.fold_left ( +. ) 0.
      (Array.init w.occ_per_round (fun i -> median (List.map (fun r -> fi r.occ_ns.(i)) rounds)))
    /. fi w.occ_per_round /. 1e6
  in
  [ ("setup_s", median (List.map (fun s -> s.total_s) setups), "s");
    ("index_bytes_per_char", index_bytes_per_char, "B/char");
    ("contains_kqps", fi (contains_block w) /. med (fun r -> r.contains_ns) *. 1e6, "kq/s");
    ("occurrences_ms", occ_ms, "ms");
    ("batch_kpps", fi w.batch_size /. med (fun r -> r.batch_ns) *. 1e6, "kpat/s");
    ("ms_mchar_s", fi w.related_len /. med (fun r -> r.ms_ns) *. 1e3, "Mchar/s");
    ("mum_mchar_s", fi w.related_len /. med (fun r -> r.mum_ns) *. 1e3, "Mchar/s") ]

let per_layer w e (s : setup) ~live_heap untraced traced =
  let traced_median f = median (List.map f traced) in
  (* counts come from the first traced round, which runs the same
     operations on the same state in every run of a seed *)
  let r0 = List.hd traced and u0 = List.hd untraced in
  let c = r0.contains_prof and o = r0.occ_prof in
  let per_contains x = fi x /. fi w.contains_per_round in
  let per_char x = fi x /. fi w.related_len in
  let per_char_rep x = per_char x /. fi w.reps in
  let queries = fi (w.contains_per_round + w.occ_per_round) in
  let pool_hits = c.pool_hits + o.pool_hits and pool_misses = c.pool_misses + o.pool_misses in
  let space = E.space e in
  let comp names =
    fi (List.fold_left
          (fun acc (c : Space_report.component) ->
            if List.mem c.comp names then acc + c.bytes else acc)
          0 space.components) /. fi w.n
  in
  let pool =
    Option.value s.pool
      ~default:{ Pagestore.Buffer_pool.hits = 0; misses = 0; evictions = 0;
                 pinned_evictions = 0; writebacks = 0 }
  in
  let overhead =
    median (List.map2 (fun u t -> fi (total_ns t) /. fi (total_ns u)) untraced traced) -. 1.
  in
  [ ("packed_seq.pack_ns_per_pattern", traced_median (fun r -> ratio (fi r.pack_ns) (fi r.packs)), "ns");
    ("search.descent_us", traced_median (fun r -> ratio (fi r.descent_ns) (fi r.descents) /. 1e3), "us");
    ("search.scan_ms", traced_median (fun r -> ratio (fi r.scan_ns) (fi r.scans) /. 1e6), "ms");
    ("search.steps_per_query", per_contains (Profile.total_steps c), "count");
    ("search.link_steps_per_query", per_contains c.link_steps, "count");
    ("search.word_steps_per_query", per_contains c.word_steps, "count");
    ("search.scalar_steps_per_query", per_contains c.scalar_steps, "count");
    ("search.scan_nodes_per_query", fi o.scan_nodes /. fi w.occ_per_round, "count");
    ("search.scan_nodes_per_hit", ratio (fi o.scan_nodes) (fi o.found), "count");
    ("engine.batch_first_ms", traced_median (fun r -> fi r.batch_first_ns /. fi w.reps /. 1e6), "ms");
    ("engine.batch_scan_ms", traced_median (fun r -> fi r.batch_scan_ns /. fi w.reps /. 1e6), "ms");
    ("matcher.nodes_checked_per_char", per_char r0.ms_stats.nodes_checked, "count");
    ("matcher.suffixes_checked_per_char", per_char r0.ms_stats.suffixes_checked, "count");
    ("matcher.link_steps_per_char", per_char_rep r0.ms_prof.link_steps, "count");
    ("matcher.rib_steps_per_char", per_char_rep r0.ms_prof.rib_steps, "count");
    ("matcher.word_steps_per_char", per_char_rep r0.ms_prof.word_steps, "count");
    ("matcher.scan_nodes_per_char", per_char_rep r0.mum_prof.scan_nodes, "count");
    ("builder.alloc_bytes_per_char", s.alloc_bytes /. fi w.n, "B/char");
    ("builder.major_collections", fi s.major_collections, "count");
    ("space.vertebrae_bytes_per_char", comp [ "vertebrae" ], "B/char");
    ("space.links_bytes_per_char", comp [ "links" ], "B/char");
    ("space.ribs_bytes_per_char", comp [ "ribs"; "rib_slack" ], "B/char");
    ("space.extribs_bytes_per_char", comp [ "extribs" ], "B/char");
    ("space.live_heap_bytes_per_char", live_heap /. fi w.n, "B/char");
    ("buffer_pool.build_misses", fi pool.misses, "count");
    ("buffer_pool.build_evictions", fi pool.evictions, "count");
    ("buffer_pool.build_writebacks", fi pool.writebacks, "count");
    ("buffer_pool.query_hit_ratio", ratio (fi pool_hits) (fi (pool_hits + pool_misses)), "ratio");
    ("buffer_pool.query_misses_per_query", fi pool_misses /. queries, "count");
    ("device.build_write_pages_per_kchar", fi s.device_writes /. (fi w.n /. 1e3), "count");
    ("device.query_read_bytes_per_query",
     fi (c.device_read_bytes + o.device_read_bytes) /. queries, "B");
    ("gc.alloc_bytes_per_query", u0.contains_alloc, "B");
    ("gc.alloc_bytes_per_char", u0.ms_alloc, "B");
    ("trace.overhead_pct", 100. *. overhead, "%") ]

let run w ~seed ~seconds ~trace ~work =
  let inp = make_inputs w seed in
  Printf.eprintf "%s seed %d: %d chars, %d-char related query\n%!" w.name seed w.n
    w.related_len;
  let tally = tally () in
  let live0 = if trace then (Gc.full_major (); (Gc.stat ()).live_words) else 0 in
  let setups = ref [] in
  let current = ref None in
  let set_up () =
    current := None;  (* so that [build] can collect the released index *)
    let e, s = build w inp.genome in
    setups := s :: !setups;
    current := Some e
  in
  set_up ();
  let live_heap =
    if trace then (Gc.full_major (); fi ((Gc.stat ()).live_words - live0) *. fi (Sys.word_size / 8))
    else 0.
  in
  let engine () = match !current with Some e -> e | None -> assert false in
  let index_bytes_per_char = fi (Space_report.index_bytes (E.space (engine ()))) /. fi w.n in
  let checked = ref None in
  (* warm-up: one checked, unmeasured round *)
  ignore (untraced_round w (engine ()) inp checked tally);
  let real, planted = self_test w (engine ()) inp in
  Printf.eprintf
    "checker self-test: %d of %d planted wrong answers and %d of %d real ones counted as failed\n%!"
    planted.failed planted.attempted real.failed real.attempted;
  if planted.failed <> planted.attempted || real.failed <> 0 then begin
    prerr_endline "checker self-test FAILED";
    exit 3
  end;
  let tr = Tracer.create () in
  let untraced = ref [] and traced = ref [] in
  (* the trace file keeps the spans of the first traced round; the
     summary covers them all *)
  let first_traced = ref 0 in
  let t0 = now_ns () in
  while List.length !untraced < 2 || secs t0 (now_ns ()) < seconds do
    (* a fresh set-up before every round: the set-ups are sampled over
       the same stretch of time as the queries, and the heap they leave
       is collected before the round *)
    set_up ();
    Gc.full_major ();
    untraced := untraced_round w (engine ()) inp checked tally :: !untraced;
    if trace then begin
      traced := traced_round w (engine ()) inp checked tally tr :: !traced;
      if !first_traced = 0 then first_traced := Tracer.count tr
    end
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let setups = List.rev !setups in
  Printf.eprintf "%d rounds in %.1f s; set-ups %s s\n%!" (List.length untraced)
    (secs t0 (now_ns ()))
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.total_s) setups));
  let metrics =
    if not trace then end_to_end w setups index_bytes_per_char untraced
    else begin
      List.iter
        (fun (name, calls, total, self) ->
          Printf.eprintf "span %-28s calls %8d total %10.1f ms self %10.1f ms\n%!" name calls
            (fi total /. 1e6) (fi self /. 1e6))
        (Tracer.summary tr);
      Tracer.write tr ~spans:!first_traced
        (Filename.concat work (Printf.sprintf "trace-%s-%d.jsonl" w.name seed));
      let s = List.nth setups (List.length setups - 1) in
      per_layer w (engine ()) s ~live_heap untraced traced
    end
  in
  print_result ~correct:(tally.failed = 0) tally metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and work = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  dna-query or dna-disk");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--work-dir", Arg.Set_string work, "DIR  directory for the trace") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    if !work = "" then (prerr_endline "--work-dir is required"; exit 2);
    run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~work:!work
