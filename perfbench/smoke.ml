(* Smoke test of the benchmark itself. Every workload of BENCHMARK.json,
   and the two-worker workload kept out of it, is cut to one small
   instance (--smoke) and run twice timed and twice traced. The test
   checks that the result line has the contract's shape, that every
   metric BENCHMARK.json names is printed with its unit, that
   passed_frac is 1, that the trace file holds a span per layer call for
   every solve, that the layer spans cover at least 95% of every solve
   span, and that the deterministic counts repeat exactly across the two
   runs. The partition search's counts repeat only at jobs 1, so they
   are not compared on two-worker workloads. *)

module Json = Soctam_util.Json

let two_worker = [ "deep_search_j2" ]
let always_repeat = [ "test_cycles.sum"; "time_table.entries"; "exact.nodes" ]

let jobs1_repeat =
  [
    "partition.enumerated";
    "partition.evaluated";
    "partition.pruned";
    "core_assign.assignments_tried";
    "core_assign.levels_cut";
  ]

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("FAIL " ^ msg))
    fmt

let get path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let string_at path j = Option.bind (get path j) Json.to_string_opt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let last_line text =
  String.split_on_char '\n' (String.trim text) |> List.rev |> List.hd

(* Run the benchmark and parse the JSON object on its last line. *)
let run ~workload ~trace ~tag =
  let out = Printf.sprintf "smoke-%s-%d-%s.out" workload trace tag in
  let cmd =
    Printf.sprintf
      "./bench.exe --workload %s --seed 1 --seconds 0 --trace %d --smoke > %s"
      workload trace out
  in
  let code = Sys.command cmd in
  if code <> 0 then begin
    fail "%s trace %d: exit code %d" workload trace code;
    None
  end
  else
    match Json.parse (last_line (read_file out)) with
    | Ok j -> Some j
    | Error msg ->
        fail "%s trace %d: last line is not JSON: %s" workload trace msg;
        None

let check_result ~workload ~trace ~specs j =
  let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
  if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
    fail "%s trace %d: result keys are %s" workload trace
      (String.concat "," keys);
  if get [ "correct" ] j <> Some (Json.Bool true) then
    fail "%s trace %d: correct is not true" workload trace;
  if get [ "failed" ] j <> Some (Json.Int 0) then
    fail "%s trace %d: failed is not 0" workload trace;
  List.iter
    (fun (name, unit) ->
      match string_at [ "metrics"; name; "unit" ] j with
      | Some u when String.equal u unit -> ()
      | Some u ->
          fail "%s trace %d: %s has unit %s, not %s" workload trace name u unit
      | None -> fail "%s trace %d: metric %s missing" workload trace name)
    specs

(* The trace file of the last traced run: one solve span and one span
   per layer for each traced solve, all carrying the solve's id. *)
let check_trace workload =
  let path = Printf.sprintf "perfbench/out/%s-seed1.trace.json" workload in
  match Json.parse (read_file path) with
  | Error msg -> fail "%s: trace file: %s" workload msg
  | Ok doc ->
      let events =
        Option.bind (Json.member "traceEvents" doc) Json.to_list
        |> Option.value ~default:[]
      in
      let ids name =
        List.filter_map
          (fun e ->
            if string_at [ "name" ] e = Some name then
              Option.bind (get [ "args"; "solve_id" ] e) Json.to_int
            else None)
          events
      in
      let solves = ids "solve" in
      if solves = [] then fail "%s: trace has no solve span" workload;
      List.iter
        (fun layer ->
          if ids layer <> solves then
            fail "%s: trace spans of %s do not match the solves" workload layer)
        [ "time_table"; "partition_evaluate"; "exact"; "check"; "bounds" ]

let value name j =
  match get [ "metrics"; name; "value" ] j with
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

let () =
  let spec =
    match Json.parse (read_file "../BENCHMARK.json") with
    | Ok j -> j
    | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  let list key =
    Option.bind (Json.member key spec) Json.to_list |> Option.value ~default:[]
  in
  let metric_specs key =
    List.filter_map
      (fun m ->
        match (string_at [ "name" ] m, string_at [ "unit" ] m) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (list key)
  in
  let end_to_end = metric_specs "end_to_end"
  and per_layer = metric_specs "per_layer" in
  let named = List.filter_map (string_at [ "name" ]) (list "workloads") in
  let workloads =
    named @ List.filter (fun w -> not (List.mem w named)) two_worker
  in
  if named = [] || end_to_end = [] || per_layer = [] then
    fail "BENCHMARK.json names no workloads or metrics";
  List.iter
    (fun workload ->
      let repeat =
        if List.mem workload two_worker then always_repeat
        else always_repeat @ jobs1_repeat
      in
      let results =
        List.concat_map
          (fun (trace, specs) ->
            List.filter_map
              (fun tag ->
                let r = run ~workload ~trace ~tag in
                Option.iter (check_result ~workload ~trace ~specs) r;
                r)
              [ "a"; "b" ])
          [ (0, end_to_end); (1, per_layer) ]
      in
      check_trace workload;
      List.iter
        (fun j ->
          (match value "passed_frac" j with
          | Some v when v <> 1. -> fail "%s: passed_frac %g" workload v
          | Some _ | None -> ());
          match value "trace.coverage_min" j with
          | Some v when v < 0.95 ->
              fail "%s: layer spans cover %g of a solve" workload v
          | Some _ | None -> ())
        results;
      List.iter
        (fun name ->
          match List.filter_map (value name) results with
          | [ a; b ] when a = b -> ()
          | [ a; b ] ->
              fail "%s: %s differs across runs (%g, %g)" workload name a b
          | _ -> fail "%s: %s not printed twice" workload name)
        repeat)
    workloads;
  if !failures > 0 then exit 1;
  Printf.printf "perfbench smoke: %d workloads OK\n" (List.length workloads)
