(* Layered benchmark of the paper's wrapper/TAM co-optimization pipeline.

   One run measures one workload in one process as a closed loop: one
   solve at a time, at most two domains. A solve takes one (SOC, W, TAM
   plan) through the public layer entry points, each call timed from
   here:

     Time_table.build -> Partition_evaluate.run_with
       -> Co_optimize.finish -> Certify.co_optimize, then Bounds.compute

   and checks the answer (see [check]). A pass solves every fixed
   instance of the workload once, with the wrapper front cache reset
   before every solve (cold, as each `soctam optimize` process pays it).

   The seed adds one Medium family SOC to the seeded workloads. Its cost
   at W=96 ranges over a factor of six between family members, so it is
   kept out of everything the end-to-end figures measure, which would
   otherwise move with the seed rather than with the code: it is parsed
   and solved only after those figures are taken (first at jobs 1 for its
   reference answer), checked like every other solve, and reported in its
   own seeded.* figures.

   Set-up parses every fixed SOC of the workload from its ITC'02 text,
   which is what the CLI pays, and on a two-worker workload also spawns
   and joins a worker team. One set-up is well under a millisecond, so
   the timed passes repeat it [setup_reps] times before every solve and
   report the median of all repetitions: set-up then sees the same host
   speed as the solves. Each group of repetitions starts after a full
   major collection, outside any timing, so that it does not pay the
   previous solve's collection debt (a fresh CLI process has none).

   Timed runs (--trace 0) pass Obs.null everywhere. Traced runs
   (--trace 1) alternate untraced and traced passes: traced passes hand
   an Obs collector to the program, read its partition/*, core_assign/*,
   pool/* and wrapper/* counters, keep one root span per solve with a
   child span per layer call, and write them as Chrome trace-event JSON;
   the untraced ones give the tracing overhead.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   A traced run writes its trace to perfbench/out/ under the working
   directory.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

module Soc = Soctam_model.Soc
module Time_table = Soctam_core.Time_table
module Partition_evaluate = Soctam_core.Partition_evaluate
module Co_optimize = Soctam_core.Co_optimize
module Run_config = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Bounds = Soctam_core.Bounds
module Architecture = Soctam_tam.Architecture
module Certify = Soctam_check.Certify
module Report = Soctam_check.Report
module Itc02 = Soctam_soc_data.Itc02_format
module Family = Soctam_soc_data.Family
module Philips = Soctam_soc_data.Philips
module Front = Soctam_wrapper.Front
module Obs = Soctam_obs.Obs
module Pool = Soctam_util.Pool
module Json = Soctam_util.Json
module Timer = Soctam_util.Timer

let now_ns () = Int64.to_int (Timer.now_ns ())
let fi = float_of_int
let seconds ns = fi ns /. 1e9

(* {1 Workloads} *)

type instance = {
  soc : string;
  width : int;
  tams : int option;  (** [None] = P_NPAW up to [max_tams] *)
  seeded : bool;
}

type workload = {
  name : string;
  jobs : int;
  instances : seeded:string -> instance list;
  smoke : instance;  (** the one small instance of the smoke test *)
}

let max_tams = 10
let p_npaw soc width = { soc; width; tams = None; seeded = false }
let seeded_at seeded width = { (p_npaw seeded width) with seeded = true }

(* The paper's experiments: every SOC at W = 16, 24, ..., 64. *)
let paper_grid ~seeded =
  List.concat_map
    (fun soc -> List.init 7 (fun k -> p_npaw soc (16 + (8 * k))))
    [ "d695"; "p21241"; "p31108"; "p93791" ]
  @ [ seeded_at seeded 64 ]

(* Wide widths at two TAMs: large time tables, the search bypassed. *)
let wide_width ~seeded:_ =
  List.concat_map
    (fun soc ->
      List.map
        (fun width -> { (p_npaw soc width) with tams = Some 2 })
        [ 96; 128; 192; 256 ])
    [ "d695"; "p93791" ]

(* Millions of partitions per solve; p31108 is saturated at W=96. *)
let deep_search ~seeded =
  List.map (fun soc -> p_npaw soc 96) [ "d695"; "p31108"; "p93791" ]
  @ [ seeded_at seeded 96 ]

let workloads =
  let small = p_npaw "d695" 32 in
  [
    {
      name = "paper_grid";
      jobs = 1;
      instances = paper_grid;
      smoke = p_npaw "d695" 16;
    };
    {
      name = "wide_width";
      jobs = 1;
      instances = wide_width;
      smoke = { (p_npaw "d695" 96) with tams = Some 2 };
    };
    { name = "deep_search"; jobs = 1; instances = deep_search; smoke = small };
    {
      name = "deep_search_j2";
      jobs = 2;
      instances = deep_search;
      smoke = small;
    };
  ]

(* The seed picks the Medium family member that joins the seeded
   workloads, so a claim can be rechecked on an SOC nobody tuned for. *)
let seeded_soc seed =
  Family.instance Family.Medium ~index:(seed land 0x3fff_ffff)

(* {1 Set-up} *)

let setup_reps = 11

(* The inputs: every SOC the instances name, as ITC'02 text. *)
let soc_texts ~seed instances =
  List.sort_uniq String.compare (List.map (fun i -> i.soc) instances)
  |> List.map (fun name ->
         let soc =
           match Philips.by_name name with
           | Some soc -> soc
           | None -> seeded_soc seed
         in
         (name, Itc02.to_string soc))

let parse_all texts =
  List.map
    (fun (name, text) ->
      match Itc02.of_string text with
      | Ok soc -> (name, soc)
      | Error msg -> failwith (Printf.sprintf "bench: parse %s: %s" name msg))
    texts

type setup = { setup_ns : int; parse_ns : int }

let time_setup ~jobs texts =
  Gc.full_major ();
  List.init setup_reps (fun _ ->
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (parse_all texts));
      let t1 = now_ns () in
      if jobs > 1 then Pool.Team.with_team ~jobs ignore;
      { setup_ns = now_ns () - t0; parse_ns = t1 - t0 })

let no_setup () = []

(* {1 One solve} *)

let layers =
  [| "time_table"; "partition_evaluate"; "exact"; "check"; "bounds" |]

type answer = { widths : int array; assignment : int array; time : int }

type solve = {
  inst : instance;
  start_ns : int;
  total_ns : int;
  layer_start : int array;  (** indexed like [layers] *)
  layer_ns : int array;
  answer : answer;
  proven : bool;
  exact_nodes : int;
  gap_pct : float;
  violations : int;
  failure : string option;
  counters : (string * int) list;  (** traced solves only *)
  busy_ns : int array;  (** per pool worker; traced solves only *)
}

let label i =
  Printf.sprintf "%s W=%d%s" i.soc i.width
    (match i.tams with Some b -> Printf.sprintf " B=%d" b | None -> "")

(* The correctness gate: a clean certificate, a completed search, a final
   time between the combined lower bound and the heuristic incumbent, and
   the reference answer of the instance (from its first solve, at jobs 1)
   reproduced byte for byte. *)
let check ~reference ~(r : Co_optimize.t) ~report ~(bounds : Bounds.t)
    answer =
  let complete =
    match r.Co_optimize.outcome with
    | Outcome.Complete -> true
    | Outcome.Budget_exhausted _ | Outcome.Interrupted _ -> false
  in
  let same =
    match reference with
    | None -> true
    | Some a ->
        a.time = answer.time && a.widths = answer.widths
        && a.assignment = answer.assignment
  in
  let final = r.Co_optimize.final_time in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (Report.clean report, "certificate not clean");
      (complete, "search did not complete");
      (final >= bounds.Bounds.combined, "final time beats the lower bound");
      ( final <= r.Co_optimize.heuristic_time,
        "final time exceeds the heuristic time" );
      (same, "answer differs from the jobs-1 reference");
    ]
  |> function
  | [] -> None
  | l -> Some (String.concat "; " l)

let solve ~jobs ~traced ~reference socs inst =
  let stats = if traced then Obs.create () else Obs.null in
  let soc = List.assoc inst.soc socs in
  let total_width = inst.width in
  let layer_start = Array.make (Array.length layers) 0 in
  let layer_ns = Array.make (Array.length layers) 0 in
  let timed k f =
    let t0 = now_ns () in
    let v = f () in
    layer_start.(k) <- t0;
    layer_ns.(k) <- now_ns () - t0;
    v
  in
  let cfg =
    Run_config.default |> Run_config.with_jobs jobs
    |> Run_config.with_stats stats
    |> Run_config.with_max_tams max_tams
  in
  let cfg =
    match inst.tams with Some b -> Run_config.with_tams b cfg | None -> cfg
  in
  Front.reset ();
  let start_ns = now_ns () in
  let table =
    timed 0 (fun () -> Time_table.build ~stats soc ~max_width:total_width)
  in
  let pe =
    timed 1 (fun () -> Partition_evaluate.run_with cfg ~table ~total_width)
  in
  let r =
    timed 2 (fun () ->
        Co_optimize.finish ~stats ~table
          ~node_limit:cfg.Run_config.node_limit pe)
  in
  let report =
    timed 3 (fun () -> Certify.co_optimize ~table ~soc ~total_width r)
  in
  let bounds = timed 4 (fun () -> Bounds.compute table ~total_width) in
  let total_ns = now_ns () - start_ns in
  let arch = r.Co_optimize.architecture in
  let answer =
    {
      widths = arch.Architecture.widths;
      assignment = arch.Architecture.assignment;
      time = r.Co_optimize.final_time;
    }
  in
  let snap = Obs.snapshot stats in
  let busy w =
    let name = Printf.sprintf "pool/worker%d" w in
    match List.assoc_opt name snap.Obs.spans with
    | Some s -> s.Obs.s_total_ns
    | None -> 0
  in
  {
    inst;
    start_ns;
    total_ns;
    layer_start;
    layer_ns;
    answer;
    proven = r.Co_optimize.final_proven_optimal;
    exact_nodes = r.Co_optimize.exact_nodes;
    gap_pct = Bounds.gap_pct bounds ~time:r.Co_optimize.final_time;
    violations = List.length report.Report.violations;
    failure = check ~reference ~r ~report ~bounds answer;
    counters = snap.Obs.counters;
    busy_ns = Array.init jobs busy;
  }

let covered_ns s = Array.fold_left ( + ) 0 s.layer_ns

(* {1 Passes} *)

type pass = {
  solves : solve list;
  setups : setup list;
  minor_words : float;  (** during the solves only, like the next one *)
  major_collections : int;
}

(* [setup ()] runs before every solve, outside the solve's timing. *)
let run_pass ~jobs ~traced ~reference ~setup socs instances =
  List.fold_left
    (fun p inst ->
      let setups = setup () in
      let g0 = Gc.quick_stat () in
      let s = solve ~jobs ~traced ~reference:(reference inst) socs inst in
      let g1 = Gc.quick_stat () in
      {
        solves = s :: p.solves;
        setups = setups @ p.setups;
        minor_words = p.minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections =
          p.major_collections + g1.Gc.major_collections
          - g0.Gc.major_collections;
      })
    { solves = []; setups = []; minor_words = 0.; major_collections = 0 }
    instances
  |> fun p -> { p with solves = List.rev p.solves }

(* {1 Statistics} *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l = List.fold_left ( +. ) 0. l /. fi (List.length l)
let geomean l = exp (mean (List.map log l))
let sum_int f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sum_float f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let share p l = fi (List.length (List.filter p l)) /. fi (List.length l)

(* A pass's time: every instance solved and certified once. *)
let pass_s p = sum_float (fun s -> seconds s.total_ns) p.solves

(* {1 Metrics} *)

let metric unit v =
  Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]

let count v = Json.Obj [ ("value", Json.Int v); ("unit", Json.String "count") ]

let setups f passes =
  List.concat_map (fun p -> List.map (fun s -> seconds (f s)) p.setups) passes

(* Timings aggregate over whole passes: the median of the set-up
   repetitions and of the pass times, and every solve of every timed
   pass. Outcomes are those of one pass, since every pass gives the same
   answers. [heap_bytes] is read before the seeded instance is solved. *)
let end_to_end ~passes ~heap_bytes ~attempted ~failed =
  let solves = List.concat_map (fun p -> p.solves) passes in
  let solve_s = List.map (fun s -> seconds s.total_ns) solves in
  let one_pass = (List.hd passes).solves in
  [
    ("setup_s", metric "s" (median (setups (fun s -> s.setup_ns) passes)));
    ("pass_s", metric "s" (median (List.map pass_s passes)));
    ("solve_s.p50", metric "s" (median solve_s));
    ("solve_s.geomean", metric "s" (geomean solve_s));
    ("test_cycles.sum", count (sum_int (fun s -> s.answer.time) one_pass));
    ( "gap_pct.mean",
      metric "%" (mean (List.map (fun s -> s.gap_pct) one_pass)) );
    ("proven_frac", metric "frac" (share (fun s -> s.proven) one_pass));
    ("passed_frac", metric "frac" (fi (attempted - failed) /. fi attempted));
    ("heap_peak_mb", metric "MiB" (fi heap_bytes /. 1048576.));
  ]

(* Per-layer figures: layer times are medians over the traced passes of
   each pass's sum, shares are of the pass time, and counts are those of
   the first traced pass (they repeat exactly at jobs 1). GC figures come
   from the solves of the untraced passes, so neither set-up nor the
   collector's own allocation is counted. The seeded.* figures are those
   of the seeded solve at the workload's jobs (0 on a workload without a
   seeded instance). *)
let per_layer ~jobs ~texts ~traced ~untraced ~seeded =
  let first = (List.hd traced).solves in
  let over_traced f = median (List.map (fun p -> f p.solves) traced) in
  let over_untraced f = median (List.map f untraced) in
  let layer_s k =
    over_traced (sum_float (fun s -> seconds s.layer_ns.(k)))
  in
  let layer_share k =
    median
      (List.map
         (fun p ->
           sum_float (fun s -> seconds s.layer_ns.(k)) p.solves /. pass_s p)
         traced)
  in
  let c name =
    sum_int
      (fun s -> Option.value ~default:0 (List.assoc_opt name s.counters))
      first
  in
  let busy w =
    over_traced
      (sum_float (fun s -> if w < jobs then seconds s.busy_ns.(w) else 0.))
  in
  (* Time a worker spends inside Partition_evaluate but outside a chunk:
     team start-up, round barriers, reductions and steal hunts. *)
  let idle =
    over_traced
      (sum_float (fun s ->
           Array.fold_left
             (fun acc b -> acc +. seconds (max 0 (s.layer_ns.(1) - b)))
             0. s.busy_ns))
  in
  let seeded_solve f = sum_float f seeded in
  let enumerated = c "partition/enumerated"
  and evaluated = c "partition/evaluated" in
  let traced_s = median (List.map pass_s traced)
  and untraced_s = median (List.map pass_s untraced) in
  [
    ( "soc_data.parse_s",
      metric "s" (median (setups (fun s -> s.parse_ns) (untraced @ traced))) );
    ( "soc_data.bytes",
      metric "bytes" (fi (sum_int (fun (_, t) -> String.length t) texts)) );
    ("time_table.build_s", metric "s" (layer_s 0));
    ("time_table.share", metric "frac" (layer_share 0));
    ("time_table.entries", count (c "time_table/entries"));
    ("wrapper.front_misses", count (c "wrapper/front_misses"));
    ("wrapper.front_hits", count (c "wrapper/front_hits"));
    ( "gc.minor_words",
      metric "words" (over_untraced (fun p -> p.minor_words)) );
    ( "gc.major_collections",
      metric "count" (over_untraced (fun p -> fi p.major_collections)) );
    ("partition_evaluate.run_s", metric "s" (layer_s 1));
    ("partition_evaluate.share", metric "frac" (layer_share 1));
    ("partition.enumerated", count enumerated);
    ("partition.evaluated", count evaluated);
    ("partition.pruned", count (c "partition/pruned"));
    ( "partition.evaluated_ratio",
      metric "frac"
        (if enumerated = 0 then 0. else fi evaluated /. fi enumerated) );
    ( "core_assign.assignments_tried",
      count (c "core_assign/assignments_tried") );
    ("core_assign.levels_cut", count (c "core_assign/levels_cut"));
    ("pool.chunks", count (c "pool/chunks"));
    ("pool.steals", count (c "pool/steals"));
    ("pool.tau_publications", count (c "pool/tau_publications"));
    ("pool.busy_s.w0", metric "s" (busy 0));
    ("pool.busy_s.w1", metric "s" (busy 1));
    ("pool.idle_s", metric "s" idle);
    ("exact.finish_s", metric "s" (layer_s 2));
    ("exact.share", metric "frac" (layer_share 2));
    ("exact.nodes", count (sum_int (fun s -> s.exact_nodes) first));
    ( "exact.node_limit_hits",
      count (List.length (List.filter (fun s -> not s.proven) first)) );
    ("exact.proven_frac", metric "frac" (share (fun s -> s.proven) first));
    ("check.certify_s", metric "s" (layer_s 3));
    ("check.share", metric "frac" (layer_share 3));
    ("check.violations", count (sum_int (fun s -> s.violations) first));
    ("bounds.compute_s", metric "s" (layer_s 4));
    ( "solve.self_s",
      metric "s"
        (over_traced (sum_float (fun s -> seconds (s.total_ns - covered_ns s))))
    );
    ( "trace.coverage_min",
      metric "frac"
        (List.fold_left
           (fun acc s -> Float.min acc (fi (covered_ns s) /. fi s.total_ns))
           1.
           (List.concat_map (fun p -> p.solves) traced)) );
    ("trace.pass_s.traced", metric "s" traced_s);
    ("trace.pass_s.untraced", metric "s" untraced_s);
    ("trace.overhead_s", metric "s" (traced_s -. untraced_s));
    ("seeded.solve_s", metric "s" (seeded_solve (fun s -> seconds s.total_ns)));
    ( "seeded.test_cycles",
      metric "count" (seeded_solve (fun s -> fi s.answer.time)) );
    ("seeded.gap_pct", metric "%" (seeded_solve (fun s -> s.gap_pct)));
  ]

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per solve and per layer call, in microseconds from the first
   traced solve; every span of a solve carries the solve's id.
   [otherData.self_s] sums each span name's self time over the traced
   passes: a layer span has no children, so its self time is its
   duration, and a solve's self time is what its layer spans leave
   uncovered. *)
let write_trace ~path ~workload ~seed traced =
  let solves = List.concat_map (fun p -> p.solves) traced in
  let origin = (List.hd solves).start_ns in
  let us ns = Json.Float (fi ns /. 1e3) in
  let event ~name ~cat ~ts ~dur args =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String cat);
        ("ph", Json.String "X");
        ("ts", us (ts - origin));
        ("dur", us dur);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj args);
      ]
  in
  let events =
    List.mapi
      (fun id s ->
        let ids =
          [
            ("solve_id", Json.Int id);
            ("instance", Json.String (label s.inst));
          ]
        in
        event ~name:"solve" ~cat:"solve" ~ts:s.start_ns ~dur:s.total_ns
          (ids @ [ ("self_us", us (s.total_ns - covered_ns s)) ])
        :: List.mapi
             (fun k name ->
               event ~name ~cat:"layer" ~ts:s.layer_start.(k)
                 ~dur:s.layer_ns.(k) ids)
             (Array.to_list layers))
      solves
    |> List.concat
  in
  let self_s f = Json.Float (sum_float (fun s -> seconds (f s)) solves) in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List events);
        ("displayTimeUnit", Json.String "ms");
        ( "otherData",
          Json.Obj
            [
              ("workload", Json.String workload);
              ("seed", Json.Int seed);
              ("traced_passes", Json.Int (List.length traced));
              ( "self_s",
                Json.Obj
                  (Array.to_list
                     (Array.mapi
                        (fun k name -> (name, self_s (fun s -> s.layer_ns.(k))))
                        layers)
                  @ [ ("solve", self_s (fun s -> s.total_ns - covered_ns s)) ]
                  ) );
            ] );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

(* {1 Main} *)

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 0 and secs = ref 10. in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ( "--seconds",
        Arg.Set_float secs,
        "S seconds to measure in whole passes (at least one)" );
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ("--smoke", Arg.Set smoke, " cut the workload to one small instance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | Some _ | None ->
        prerr_endline usage;
        exit 2
  in
  let traced_run = !trace = 1 in
  let seeded_name = (seeded_soc !seed).Soc.name in
  let fixed, seeded =
    (if !smoke then [ w.smoke ] else w.instances ~seeded:seeded_name)
    |> List.partition (fun i -> not i.seeded)
  in
  let texts = soc_texts ~seed:!seed fixed in
  let socs = parse_all texts in
  let round_trip_ok texts socs =
    List.for_all
      (fun (name, text) ->
        String.equal (Itc02.to_string (List.assoc name socs)) text)
      texts
  in
  (* One untimed warm-up pass at jobs 1: it grows the heap to its working
     size and gives every fixed instance its reference answer. *)
  let warm =
    run_pass ~jobs:1 ~traced:false
      ~reference:(fun _ -> None)
      ~setup:no_setup socs fixed
  in
  let reference_in p inst =
    List.find_map
      (fun s -> if s.inst = inst then Some s.answer else None)
      p.solves
  in
  let pass ~traced =
    run_pass ~jobs:w.jobs ~traced ~reference:(reference_in warm)
      ~setup:(fun () -> time_setup ~jobs:w.jobs texts)
      socs fixed
  in
  let deadline = now_ns () + int_of_float (!secs *. 1e9) in
  (* Whole passes (in a traced run, pairs of an untraced and a traced
     pass) while the next one is expected to end no later than half a
     pass after the deadline, so that a run measures about --seconds on
     average; at least one. *)
  let rec measure untraced traced =
    let t0 = now_ns () in
    let untraced = pass ~traced:false :: untraced in
    let traced = if traced_run then pass ~traced:true :: traced else traced in
    let t1 = now_ns () in
    if t1 + ((t1 - t0) / 2) <= deadline then measure untraced traced
    else (List.rev untraced, List.rev traced)
  in
  let untraced, traced = measure [] [] in
  let heap_bytes =
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  (* The seeded instance, only now: at jobs 1 for its reference answer,
     then at the workload's jobs if that differs. *)
  let seeded_texts = soc_texts ~seed:!seed seeded in
  let seeded_socs = parse_all seeded_texts in
  let seeded_ref =
    run_pass ~jobs:1 ~traced:false
      ~reference:(fun _ -> None)
      ~setup:no_setup seeded_socs seeded
  in
  let seeded_run =
    if w.jobs = 1 then None
    else
      Some
        (run_pass ~jobs:w.jobs ~traced:false
           ~reference:(reference_in seeded_ref)
           ~setup:no_setup seeded_socs seeded)
  in
  let seeded = (Option.value seeded_run ~default:seeded_ref).solves in
  let round_trip_ok =
    round_trip_ok texts socs && round_trip_ok seeded_texts seeded_socs
  in
  let solves =
    List.concat_map
      (fun p -> p.solves)
      ((warm :: untraced) @ traced @ (seeded_ref :: Option.to_list seeded_run))
  in
  let failures = List.filter (fun s -> Option.is_some s.failure) solves in
  List.iter
    (fun s ->
      Printf.printf "FAIL %s: %s\n" (label s.inst) (Option.get s.failure))
    failures;
  if not round_trip_ok then
    print_endline "FAIL soc_data: ITC'02 text does not round-trip";
  let attempted = List.length solves and failed = List.length failures in
  let times l =
    String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" x) l)
  in
  Printf.printf
    "workload %s, seed %d, jobs %d (recommended_jobs %d, OCaml %s): %d \
     solves in %d timed passes (s): %s%s\n"
    w.name !seed w.jobs
    (Pool.recommended_jobs ())
    Sys.ocaml_version
    (List.length (List.concat_map (fun p -> p.solves) untraced))
    (List.length untraced)
    (times (List.map pass_s untraced))
    (match seeded with
    | [] -> ""
    | l ->
        Printf.sprintf "; seeded solve %s (s): %s" seeded_name
          (times (List.map (fun s -> seconds s.total_ns) l)));
  let metrics =
    if traced_run then begin
      let out = Filename.concat "perfbench" "out" in
      mkdir_p out;
      let path =
        Filename.concat out
          (Printf.sprintf "%s-seed%d.trace.json" w.name !seed)
      in
      write_trace ~path ~workload:w.name ~seed:!seed traced;
      Printf.printf "trace written to %s\n" path;
      per_layer ~jobs:w.jobs ~texts ~traced ~untraced ~seeded
    end
    else end_to_end ~passes:untraced ~heap_bytes ~attempted ~failed
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && round_trip_ok));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))
