module Obs = Soctam_obs.Obs
module Core_data = Soctam_model.Core_data

type stats = { hits : int; misses : int; evictions : int; entries : int }

(* One cached core: the widest front computed so far plus an LRU stamp.
   [front.(w - 1)] is the core's best testing time at wrapper width
   [w], a running minimum over chain counts ([Design.time_table]), so
   the front for a narrower [max_width] is literally a prefix of a
   wider one — the cache stores only the widest and serves narrower
   requests with [Array.sub]. *)
type entry = { mutable front : int array; mutable stamp : int }

(* Module-level cache shared by every evaluation in the process:
   fronts depend only on core content, not on which partition or SOC
   instance is asking. All state below is guarded by [mutex]; fronts
   handed out are treated as immutable by every caller ([Time_table]
   stores them as rows and only reads). *)
let mutex = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let cap = ref 256
let clock = ref 0
let hit_count = ref 0
let miss_count = ref 0
let eviction_count = ref 0

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* The cache key is the core's test content — every field
   [Design.time_table] reads — and deliberately not its [id] or
   [name]: distinct cores with identical wrapper behavior (common in
   synthetic SOC families) share one entry. *)
let key (core : Core_data.t) =
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int core.Core_data.inputs);
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int core.Core_data.outputs);
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int core.Core_data.bidirs);
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int core.Core_data.patterns);
  Buffer.add_char b ':';
  Array.iter
    (fun len ->
      Buffer.add_string b (string_of_int len);
      Buffer.add_char b ',')
    core.Core_data.scan_chains;
  Buffer.contents b

(* Drop the least recently touched entry; O(entries) scan, amortized
   into the rare miss-at-capacity path. *)
let evict_one () =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (k, e.stamp))
    table;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove table k;
      incr eviction_count
  | None -> ()

let set_capacity n =
  if n < 0 then invalid_arg "Front.set_capacity: capacity must be >= 0";
  locked (fun () ->
      cap := n;
      while Hashtbl.length table > n do
        evict_one ()
      done)

let capacity () = locked (fun () -> !cap)

let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0;
      eviction_count := 0)

let stats () =
  locked (fun () ->
      {
        hits = !hit_count;
        misses = !miss_count;
        evictions = !eviction_count;
        entries = Hashtbl.length table;
      })

let time_table ?(stats = Obs.null) core ~max_width =
  if max_width < 1 then
    invalid_arg "Front.time_table: max_width must be >= 1";
  let value, hit =
    locked (fun () ->
        if !cap = 0 then (Design.time_table core ~max_width, false)
        else begin
          incr clock;
          let k = key core in
          match Hashtbl.find_opt table k with
          | Some e when Array.length e.front >= max_width ->
              incr hit_count;
              e.stamp <- !clock;
              let f =
                if Array.length e.front = max_width then e.front
                else Array.sub e.front 0 max_width
              in
              (f, true)
          | Some e ->
              (* Known core, wider request: recompute at the new width
                 and keep the wider front (prefix-stability makes it
                 serve every earlier width too). *)
              incr miss_count;
              e.stamp <- !clock;
              let f = Design.time_table core ~max_width in
              e.front <- f;
              (f, false)
          | None ->
              incr miss_count;
              if Hashtbl.length table >= !cap then evict_one ();
              let f = Design.time_table core ~max_width in
              Hashtbl.replace table k { front = f; stamp = !clock };
              (f, false)
        end)
  in
  if Obs.enabled stats then
    Obs.add stats
      (if hit then "wrapper/front_hits" else "wrapper/front_misses");
  value
