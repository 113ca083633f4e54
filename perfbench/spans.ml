(* In-memory span recorder for the traced run.

   A span brackets one call from the benchmark into a layer: name,
   parent span, the transaction or request id it serves, and its start
   and end on the host clock and (where one applies) the simulated
   clock.  Spans are kept in one growable int array and written out
   once, when the run ends. *)

let fields = 7 (* name, parent, id, host_start, host_end, sim_start, sim_end *)

(* Host monotonic clock in nanoseconds (clock_gettime, no allocation). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable data : int array;
  mutable len : int;  (* spans recorded *)
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (* reverse order of first use *)
}

let create () =
  { data = Array.make (fields * 4096) 0; len = 0; names = Hashtbl.create 16;
    name_list = [] }

let name_id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names name i;
      t.name_list <- name :: t.name_list;
      i

(* Open a span; returns its handle.  [sim] is the simulated start (-1
   when the call has no simulated clock). *)
let start t ?(parent = -1) ?(id = -1) ?(sim = -1) name =
  if (t.len + 1) * fields > Array.length t.data then begin
    let bigger = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 bigger 0 (t.len * fields);
    t.data <- bigger
  end;
  let s = t.len in
  let o = s * fields in
  t.data.(o) <- name_id t name;
  t.data.(o + 1) <- parent;
  t.data.(o + 2) <- id;
  t.data.(o + 5) <- sim;
  t.data.(o + 6) <- -1;
  t.len <- s + 1;
  t.data.(o + 3) <- now_ns ();
  s

let stop t ?(sim = -1) s =
  let o = s * fields in
  t.data.(o + 4) <- now_ns ();
  t.data.(o + 6) <- sim

(* Total host nanoseconds and count of the spans named [name]. *)
let host_total t name =
  match Hashtbl.find_opt t.names name with
  | None -> (0, 0)
  | Some id ->
      let sum = ref 0 and n = ref 0 in
      for s = 0 to t.len - 1 do
        let o = s * fields in
        if t.data.(o) = id then begin
          sum := !sum + (t.data.(o + 4) - t.data.(o + 3));
          incr n
        end
      done;
      (!sum, !n)

let count t = t.len

(* Write every span as one JSON document: a name table, one row per
   span, [name, parent, id, host_start_ns, host_end_ns, sim_start_ns,
   sim_end_ns] (-1 = none), and the given named JSON snapshots. *)
let write t ~snapshots path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"fields\":[\"name\",\"parent\",\"id\",\"host_start_ns\",\
                        \"host_end_ns\",\"sim_start_ns\",\"sim_end_ns\"],\n\"names\":[";
      List.iteri
        (fun i n -> Printf.fprintf oc "%s%S" (if i = 0 then "" else ",") n)
        (List.rev t.name_list);
      output_string oc "],\n\"spans\":[";
      for s = 0 to t.len - 1 do
        let o = s * fields in
        Printf.fprintf oc "%s[%d,%d,%d,%d,%d,%d,%d]"
          (if s = 0 then "\n" else ",\n")
          t.data.(o) t.data.(o + 1) t.data.(o + 2) t.data.(o + 3)
          t.data.(o + 4) t.data.(o + 5) t.data.(o + 6)
      done;
      output_string oc "],\n\"snapshots\":{";
      List.iteri
        (fun i (name, json) ->
          Printf.fprintf oc "%s%S:%s" (if i = 0 then "\n" else ",\n") name json)
        snapshots;
      output_string oc "}}\n")
