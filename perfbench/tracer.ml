(* In-memory spans recorded from the benchmark's own code around each
   call into a layer of the program: name, start, end and parent, kept
   in growable int arrays and written out when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable count : int;
  mutable current : int;  (* the open span new spans nest under; -1 at top *)
}

let create () =
  { names = Hashtbl.create 16; labels = [||]; name = Array.make 1024 0;
    start = Array.make 1024 0; stop = Array.make 1024 0;
    parent = Array.make 1024 0; count = 0; current = -1 }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.add t.names s i;
    t.labels <- Array.append t.labels [| s |];
    i

let grow a = Array.append a (Array.make (Array.length a) 0)

(* [span t name f] runs [f] inside a span and returns its result with
   the span's duration in nanoseconds. *)
let span t label f =
  if t.count = Array.length t.name then begin
    t.name <- grow t.name; t.start <- grow t.start;
    t.stop <- grow t.stop; t.parent <- grow t.parent
  end;
  let id = t.count in
  t.count <- id + 1;
  t.name.(id) <- intern t label;
  t.parent.(id) <- t.current;
  t.current <- id;
  let t0 = now_ns () in
  t.start.(id) <- t0;
  let finish () =
    let t1 = now_ns () in
    t.stop.(id) <- t1;
    t.current <- t.parent.(id);
    t1 - t0
  in
  match f () with
  | r -> (r, finish ())
  | exception e -> ignore (finish ()); raise e

(* Total and self time per span name, in nanoseconds: a span's self
   time is its duration minus the time its child spans cover. *)
let summary t =
  let total = Array.make (Array.length t.labels) 0 in
  let self = Array.make (Array.length t.labels) 0 in
  let calls = Array.make (Array.length t.labels) 0 in
  for i = 0 to t.count - 1 do
    let d = t.stop.(i) - t.start.(i) in
    total.(t.name.(i)) <- total.(t.name.(i)) + d;
    self.(t.name.(i)) <- self.(t.name.(i)) + d;
    calls.(t.name.(i)) <- calls.(t.name.(i)) + 1;
    let p = t.parent.(i) in
    if p >= 0 then self.(t.name.(p)) <- self.(t.name.(p)) - d
  done;
  Array.to_list
    (Array.mapi (fun i l -> (l, calls.(i), total.(i), self.(i))) t.labels)

let count t = t.count

(* Write the first [spans] spans, one JSON object a line. *)
let write t ~spans path =
  let oc = open_out path in
  for i = 0 to min spans t.count - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
      t.labels.(t.name.(i)) t.start.(i) t.stop.(i) t.parent.(i)
  done;
  close_out oc
