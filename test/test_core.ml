(* Tests for Soctam_core: the time table, Core_assign (Figure 1),
   Partition_evaluate (Figure 3), the exhaustive baseline and the full
   co-optimization pipeline. *)

module Tt = Soctam_core.Time_table
module Ca = Soctam_core.Core_assign
module Pe = Soctam_core.Partition_evaluate
module Ex = Soctam_core.Exhaustive
module Co = Soctam_core.Co_optimize
module Exact = Soctam_ilp.Exact

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

let small_soc seed ~cores =
  let rng = Soctam_util.Prng.create seed in
  Soctam_soc_data.Random_soc.generate rng
    {
      Soctam_soc_data.Random_soc.default_params with
      Soctam_soc_data.Random_soc.cores;
      max_ios = 60;
      max_patterns = 200;
      max_chains = 6;
      max_chain_length = 50;
    }

(* -- Time_table ----------------------------------------------------------- *)

let table_matches_wrapper =
  QCheck.Test.make ~name:"time table: agrees with Design_wrapper" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:10 in
      let ok = ref true in
      for core = 0 to 3 do
        for width = 1 to 10 do
          let direct =
            (Soctam_wrapper.Design.design (Soctam_model.Soc.core soc core)
               ~width)
              .Soctam_wrapper.Design.time
          in
          if Tt.time table ~core ~width <> direct then ok := false
        done
      done;
      !ok)

let table_accessors () =
  let soc = small_soc 5L ~cores:6 in
  let table = Tt.build soc ~max_width:16 in
  Alcotest.(check int) "cores" 6 (Tt.core_count table);
  Alcotest.(check int) "max width" 16 (Tt.max_width table);
  Alcotest.(check bool) "soc identity" true (Tt.soc table == soc);
  Alcotest.check_raises "width too large"
    (Invalid_argument "Time_table.time: width 17 outside 1..16") (fun () ->
      ignore (Tt.time table ~core:0 ~width:17))

let table_matrix () =
  let soc = small_soc 6L ~cores:3 in
  let table = Tt.build soc ~max_width:8 in
  let m = Tt.matrix table ~widths:[| 2; 8 |] in
  for core = 0 to 2 do
    Alcotest.(check int) "col 0" (Tt.time table ~core ~width:2) m.(core).(0);
    Alcotest.(check int) "col 1" (Tt.time table ~core ~width:8) m.(core).(1)
  done

let bottleneck_identifies_max () =
  let soc = small_soc 7L ~cores:8 in
  let table = Tt.build soc ~max_width:12 in
  let core = Tt.bottleneck_core table ~width:12 in
  let bound = Tt.bottleneck_bound table ~width:12 in
  Alcotest.(check int) "bound is that core's time" bound
    (Tt.time table ~core ~width:12);
  for i = 0 to 7 do
    Alcotest.(check bool) "no core exceeds" true
      (Tt.time table ~core:i ~width:12 <= bound)
  done

(* -- Core_assign ---------------------------------------------------------- *)

let figure2_times =
  [|
    [| 50; 100; 200 |]; [| 75; 95; 200 |]; [| 90; 100; 150 |];
    [| 60; 75; 80 |]; [| 120; 120; 125 |];
  |]

let figure2_widths = [| 32; 16; 8 |]

let figure2_reproduced () =
  match Ca.run ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Exceeded _ -> Alcotest.fail "must complete"
  | Ca.Assigned { assignment; tam_times; time } ->
      Alcotest.(check (list int)) "assignment (paper Figure 2b)"
        [ 1; 2; 1; 0; 0 ] (Array.to_list assignment);
      Alcotest.(check (list int)) "loads 180/200/200" [ 180; 200; 200 ]
        (Array.to_list tam_times);
      Alcotest.(check int) "SOC time" 200 time

let core_assign_exceeded () =
  match Ca.run ~best:100 ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Exceeded assigned ->
      Alcotest.(check bool) "stopped early" true (assigned >= 1 && assigned <= 5)
  | Ca.Assigned _ -> Alcotest.fail "100 cycles is unbeatable here"

let core_assign_threshold_boundary () =
  (* best exactly equal to the achievable time: >= triggers the exit. *)
  (match Ca.run ~best:200 ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Exceeded _ -> ()
  | Ca.Assigned _ -> Alcotest.fail "equal threshold must abandon");
  match Ca.run ~best:201 ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Assigned { time; _ } -> Alcotest.(check int) "201 admits 200" 200 time
  | Ca.Exceeded _ -> Alcotest.fail "201 must admit completion"

let core_assign_rejects_bad_inputs () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Ca.run ~times:[||] ~widths:[| 1 |] ());
  invalid (fun () -> Ca.run ~times:[| [| 1 |] |] ~widths:[||] ());
  invalid (fun () -> Ca.run ~times:[| [| 1; 2 |] |] ~widths:[| 4 |] ())

let random_ca_instance seed ~cores ~tams =
  let rng = Soctam_util.Prng.create seed in
  let widths =
    Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 32)
  in
  let times =
    Array.init cores (fun _ ->
        Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 500))
  in
  (times, widths)

let core_assign_complete_and_consistent =
  QCheck.Test.make ~name:"Core_assign: assigns every core exactly once"
    ~count:200
    QCheck.(pair (int_range 1 20) (int_range 1 5))
    (fun (cores, tams) ->
      let times, widths =
        random_ca_instance (Int64.of_int ((cores * 7) + tams)) ~cores ~tams
      in
      match Ca.run ~times ~widths () with
      | Ca.Exceeded _ -> false
      | Ca.Assigned { assignment; tam_times; time } ->
          Array.length assignment = cores
          && Array.for_all (fun j -> j >= 0 && j < tams) assignment
          && tam_times
             = Soctam_schedule.Makespan.loads_of_assignment
                 ~durations:(fun i j -> times.(i).(j))
                 ~assignment ~machines:tams
          && time = Soctam_util.Intutil.max_element tam_times)

let core_assign_never_beats_exact =
  QCheck.Test.make ~name:"Core_assign: never below the exact optimum"
    ~count:60
    QCheck.(pair (int_range 1 8) (int_range 1 3))
    (fun (cores, tams) ->
      let times, widths =
        random_ca_instance (Int64.of_int ((cores * 11) + tams)) ~cores ~tams
      in
      match Ca.run ~times ~widths () with
      | Ca.Exceeded _ -> false
      | Ca.Assigned { time; _ } ->
          let exact = Exact.solve_bb ~times () in
          exact.Exact.optimal && time >= exact.Exact.time)

let core_assign_heuristic_quality =
  (* List scheduling on unrelated machines has no constant guarantee on
     adversarial matrices, but on realistic instances - times derived from
     wrapper designs, where a core's time shrinks with TAM width - the
     heuristic stays close to the optimum (the paper observes 0-20%).
     A regression tripwire at 1.75x. *)
  QCheck.Test.make
    ~name:"Core_assign: near-optimal on wrapper-derived instances" ~count:30
    QCheck.(pair (int_range 1 500) (int_range 2 3))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:7 in
      let table = Tt.build soc ~max_width:12 in
      let widths = if tams = 2 then [| 5; 7 |] else [| 3; 4; 5 |] in
      let times = Tt.matrix table ~widths in
      match Ca.run ~times ~widths () with
      | Ca.Exceeded _ -> false
      | Ca.Assigned { time; _ } ->
          let exact = Exact.solve_bb ~widths ~times () in
          float_of_int time <= 1.75 *. float_of_int exact.Exact.time)

let randomized_variant_is_sound =
  QCheck.Test.make ~name:"Core_assign: randomized variant stays valid"
    ~count:50
    QCheck.(pair (int_range 2 10) (int_range 2 4))
    (fun (cores, tams) ->
      let times, widths =
        random_ca_instance (Int64.of_int ((cores * 23) + tams)) ~cores ~tams
      in
      let rng = Soctam_util.Prng.create 9L in
      let assignment, time =
        Ca.run_randomized ~rng ~restarts:5 ~times ~widths ()
      in
      Array.length assignment = cores
      && Array.for_all (fun j -> j >= 0 && j < tams) assignment
      && time = Soctam_ilp.Exact.makespan ~times ~assignment)

(* The direct-table variant is a deliberate code twin of
   [run_table_bounded] (see core_assign.ml); this property is the pin
   that keeps the two loops behaviorally identical, including
   tie-breaking, early-exit step counts and stats accounting. *)
let equal_outcome a b =
  match (a, b) with
  | ( Ca.Assigned { assignment = a1; tam_times = l1; time = t1 },
      Ca.Assigned { assignment = a2; tam_times = l2; time = t2 } ) ->
      a1 = a2 && l1 = l2 && t1 = t2
  | Ca.Exceeded m, Ca.Exceeded n -> m = n
  | _ -> false

let direct_matches_bounded =
  QCheck.Test.make
    ~name:"Core_assign: run_table_direct identical to run_table_bounded"
    ~count:100
    QCheck.(triple (int_range 1 1000) (int_range 1 5) (int_range 0 2))
    (fun (seed, tams, bound_kind) ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:12 in
      let rng = Soctam_util.Prng.create (Int64.of_int ((seed * 31) + tams)) in
      let widths =
        Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 12)
      in
      let reference = Ca.run_table_bounded ~best:max_int ~table ~widths () in
      (* Exercise all three early-exit regimes: no bound, a bound hit
         exactly (the Exceeded path), and a loose bound. *)
      let best =
        match (bound_kind, reference) with
        | 0, _ | _, Ca.Exceeded _ -> max_int
        | 1, Ca.Assigned { time; _ } -> time
        | _, Ca.Assigned { time; _ } -> time + 1 + Soctam_util.Prng.int rng 50
      in
      let scratch = Ca.scratch () in
      let check widths =
        let sb = Ca.stats () and sd = Ca.stats () in
        let bounded =
          Ca.run_table_bounded ~stats:sb ~best ~table ~widths ()
        in
        let direct =
          Ca.run_table_direct ~stats:sd ~scratch ~best ~table ~widths ()
        in
        equal_outcome bounded direct
        && sb.Ca.tried = sd.Ca.tried
        && sb.Ca.early_terminations = sd.Ca.early_terminations
        && sb.Ca.levels_cut = sd.Ca.levels_cut
      in
      (* Second instance with the same scratch: stale state must not
         leak between evaluations. *)
      let widths2 =
        Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 12)
      in
      check widths && check widths2)

let randomized_restarts_help =
  QCheck.Test.make
    ~name:"Core_assign: more restarts never hurt (same seed)" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let times, widths =
        random_ca_instance (Int64.of_int seed) ~cores:8 ~tams:3
      in
      let one =
        snd
          (Ca.run_randomized
             ~rng:(Soctam_util.Prng.create 3L)
             ~restarts:1 ~times ~widths ())
      in
      let twenty =
        snd
          (Ca.run_randomized
             ~rng:(Soctam_util.Prng.create 3L)
             ~restarts:20 ~times ~widths ())
      in
      twenty <= one)

let randomized_never_beats_exact =
  QCheck.Test.make ~name:"Core_assign: randomized variant above the optimum"
    ~count:30
    QCheck.(int_range 1 300)
    (fun seed ->
      let times, widths =
        random_ca_instance (Int64.of_int seed) ~cores:6 ~tams:3
      in
      let _, time =
        Ca.run_randomized
          ~rng:(Soctam_util.Prng.create 11L)
          ~restarts:10 ~times ~widths ()
      in
      time >= (Soctam_ilp.Exact.solve_bb ~times ()).Soctam_ilp.Exact.time)

let randomized_validation () =
  let times = [| [| 1; 2 |] |] and widths = [| 2; 2 |] in
  match
    Ca.run_randomized
      ~rng:(Soctam_util.Prng.create 1L)
      ~restarts:0 ~times ~widths ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restarts 0 accepted"

(* -- Sweep ------------------------------------------------------------------ *)

let sweep_points_consistent =
  QCheck.Test.make ~name:"Sweep: per-point invariants" ~count:6
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let points =
        Runners.sweep_run ~max_tams:4 soc ~widths:[ 6; 10; 14 ]
      in
      List.length points = 3
      && List.for_all
           (fun (p : Soctam_core.Sweep.point) ->
             Soctam_util.Intutil.sum p.Soctam_core.Sweep.widths
             = p.Soctam_core.Sweep.width
             && p.Soctam_core.Sweep.tams
                = Array.length p.Soctam_core.Sweep.widths
             && p.Soctam_core.Sweep.time >= p.Soctam_core.Sweep.lower_bound
             && p.Soctam_core.Sweep.gap_pct >= 0.)
           points)

let sweep_knee_selection () =
  let mk width time =
    {
      Soctam_core.Sweep.width;
      tams = 1;
      widths = [| width |];
      time;
      lower_bound = time;
      gap_pct = 0.;
      saturated = false;
    }
  in
  let points = [ mk 16 200; mk 24 105; mk 32 101; mk 40 100 ] in
  (match Soctam_core.Sweep.knee ~tolerance_pct:5. points with
  | Some p -> Alcotest.(check int) "narrowest within 5%" 24 p.Soctam_core.Sweep.width
  | None -> Alcotest.fail "knee expected");
  (match Soctam_core.Sweep.knee ~tolerance_pct:0. points with
  | Some p -> Alcotest.(check int) "exact best" 40 p.Soctam_core.Sweep.width
  | None -> Alcotest.fail "knee expected");
  Alcotest.(check bool) "empty" true (Soctam_core.Sweep.knee [] = None)

let sweep_validation () =
  let soc = small_soc 3L ~cores:3 in
  (match Runners.sweep_run soc ~widths:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty widths accepted");
  match Runners.sweep_run soc ~widths:[ 4; 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero width accepted"

(* -- Partition_evaluate ---------------------------------------------------- *)

let brute_force_partition_best table ~total_width ~max_tams =
  (* Reference: evaluate every partition with an unpruned Core_assign. *)
  let best = ref max_int in
  for tams = 1 to max_tams do
    Soctam_partition.Enumerate.iter ~total:total_width ~parts:tams
      (fun widths ->
        match Ca.run_table ~table ~widths () with
        | Ca.Assigned { time; _ } -> if time < !best then best := time
        | Ca.Exceeded _ -> Alcotest.fail "no threshold given")
  done;
  !best

let pruning_preserves_best =
  QCheck.Test.make
    ~name:"Partition_evaluate: tau pruning never changes the result"
    ~count:12
    QCheck.(pair (int_range 1 200) (int_range 4 12))
    (fun (seed, total_width) ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:total_width in
      let result = Runners.pe_run ~table ~total_width ~max_tams:4 () in
      result.Pe.time
      = brute_force_partition_best table ~total_width ~max_tams:4)

let stats_account_for_everything =
  QCheck.Test.make ~name:"Partition_evaluate: statistics add up" ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:12 in
      let result = Runners.pe_run ~table ~total_width:12 ~max_tams:5 () in
      Array.for_all
        (fun s ->
          s.Pe.enumerated = s.Pe.unique_partitions
          && s.Pe.completed + s.Pe.tau_terminated = s.Pe.enumerated
          && Pe.efficiency s >= 0.
          && Pe.efficiency s <= 1.)
        result.Pe.per_b)

let partition_result_is_consistent =
  QCheck.Test.make ~name:"Partition_evaluate: result widths and assignment"
    ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:14 in
      let r = Runners.pe_run ~table ~total_width:14 ~max_tams:4 () in
      Soctam_util.Intutil.sum r.Pe.widths = 14
      && Array.length r.Pe.assignment = 6
      && Exact.makespan
           ~times:(Tt.matrix table ~widths:r.Pe.widths)
           ~assignment:r.Pe.assignment
         = r.Pe.time)

let tau_reset_weakens_pruning_only =
  QCheck.Test.make
    ~name:"Partition_evaluate: carry_tau changes statistics, not the result"
    ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:12 in
      let carried = Runners.pe_run ~carry_tau:true ~table ~total_width:12 ~max_tams:4 () in
      let reset = Runners.pe_run ~carry_tau:false ~table ~total_width:12 ~max_tams:4 () in
      let completions r =
        Array.fold_left (fun acc s -> acc + s.Pe.completed) 0 r.Pe.per_b
      in
      carried.Pe.time = reset.Pe.time
      && carried.Pe.widths = reset.Pe.widths
      && completions carried <= completions reset)

let run_fixed_restricts_b () =
  let soc = small_soc 33L ~cores:5 in
  let table = Tt.build soc ~max_width:10 in
  let r = Runners.pe_run_fixed ~table ~total_width:10 ~tams:3 () in
  Alcotest.(check int) "three TAMs" 3 (Array.length r.Pe.widths);
  Alcotest.(check int) "one stats entry" 1 (Array.length r.Pe.per_b);
  Alcotest.(check int) "p(10,3) enumerated" 8 r.Pe.per_b.(0).Pe.enumerated

let partition_evaluate_validation () =
  let soc = small_soc 1L ~cores:3 in
  let table = Tt.build soc ~max_width:8 in
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Runners.pe_run ~table ~total_width:0 ~max_tams:2 ());
  invalid (fun () -> Runners.pe_run ~table ~total_width:9 ~max_tams:2 ());
  invalid (fun () -> Runners.pe_run_fixed ~table ~total_width:4 ~tams:5 ())

let fewer_tams_than_requested_is_fine () =
  (* max_tams larger than the width: B is silently capped. *)
  let soc = small_soc 2L ~cores:4 in
  let table = Tt.build soc ~max_width:3 in
  let r = Runners.pe_run ~table ~total_width:3 ~max_tams:10 () in
  Alcotest.(check int) "stats for B = 1..3" 3 (Array.length r.Pe.per_b)

let initial_best_seeding () =
  (* Seeding tau with the known optimum means nothing completes and the
     fallback single-TAM architecture is returned; seeding with a looser
     value reproduces the unseeded result. *)
  let soc = small_soc 61L ~cores:5 in
  let table = Tt.build soc ~max_width:10 in
  let unseeded = Runners.pe_run ~table ~total_width:10 ~max_tams:3 () in
  let loose =
    Runners.pe_run ~initial_best:(unseeded.Pe.time + 1) ~table ~total_width:10
      ~max_tams:3 ()
  in
  Alcotest.(check int) "loose seed reproduces" unseeded.Pe.time loose.Pe.time;
  let tight =
    Runners.pe_run ~initial_best:unseeded.Pe.time ~table ~total_width:10 ~max_tams:3 ()
  in
  Alcotest.(check bool) "tight seed cannot improve" true
    (tight.Pe.time >= unseeded.Pe.time);
  (* No partition can finish strictly below the optimum, so everything is
     tau-terminated under the tight seed. *)
  Array.iter
    (fun s -> Alcotest.(check int) "nothing completes" 0 s.Pe.completed)
    tight.Pe.per_b;
  (* The fixed-B variant's fallback must still honour the TAM count. *)
  let tight_fixed =
    Runners.pe_run_fixed ~initial_best:1 ~table ~total_width:10 ~tams:3 ()
  in
  Alcotest.(check int) "fallback keeps B" 3
    (Array.length tight_fixed.Pe.widths);
  Alcotest.(check int) "fallback widths sum" 10
    (Soctam_util.Intutil.sum tight_fixed.Pe.widths)

(* -- Exhaustive baseline --------------------------------------------------- *)

let exhaustive_is_optimal =
  QCheck.Test.make
    ~name:"Exhaustive: matches brute force over partitions x assignments"
    ~count:8
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let total_width = 8 and tams = 2 in
      let table = Tt.build soc ~max_width:total_width in
      let reference =
        Soctam_partition.Enumerate.fold ~total:total_width ~parts:tams
          ~init:max_int
          ~f:(fun acc widths ->
            let times = Tt.matrix table ~widths in
            min acc (Exact.solve_bb ~times ()).Exact.time)
      in
      let r = Runners.ex_run ~table ~total_width ~tams () in
      Soctam_core.Outcome.is_complete r.Ex.outcome && r.Ex.time = reference)

let exhaustive_budget_degrades () =
  (* Starving the per-partition node budget must yield a usable incumbent
     flagged as incomplete, never a false optimality claim. *)
  let soc = small_soc 62L ~cores:6 in
  let table = Tt.build soc ~max_width:14 in
  let full = Runners.ex_run ~table ~total_width:14 ~tams:3 () in
  Alcotest.(check bool) "full run complete" true
    (Soctam_core.Outcome.is_complete full.Ex.outcome);
  let starved =
    Runners.ex_run ~node_limit_per_partition:1 ~table ~total_width:14 ~tams:3 ()
  in
  Alcotest.(check bool) "starved run incomplete" false
    (Soctam_core.Outcome.is_complete starved.Ex.outcome);
  Alcotest.(check bool) "incumbent no better than optimum" true
    (starved.Ex.time >= full.Ex.time)

let exhaustive_node_limit_truncation_pinned () =
  (* At jobs=1 the first partition not solved to optimality stops the
     whole slice: no later partition is solved, however the scheduler
     carves the slice into chunks. These are the figures of the
     single-chunk sequential walk; a scheduler that let a later chunk
     keep solving after the stop returns 156201, [5; 7; 8] and 23 of 33
     solved instead. *)
  let soc =
    Soctam_soc_data.Random_soc.generate
      (Soctam_util.Prng.create 4L)
      {
        Soctam_soc_data.Random_soc.default_params with
        Soctam_soc_data.Random_soc.cores = 7;
      }
  in
  let table = Tt.build soc ~max_width:20 in
  let r =
    Runners.ex_run ~jobs:1 ~node_limit_per_partition:20 ~table ~total_width:20
      ~tams:3 ()
  in
  Alcotest.(check int) "time" 199821 r.Ex.time;
  Alcotest.(check (array int)) "widths" [| 3; 5; 12 |] r.Ex.widths;
  Alcotest.(check int) "partitions total" 33 r.Ex.partitions_total;
  Alcotest.(check int) "partitions solved" 19 r.Ex.partitions_solved;
  Alcotest.(check int) "nodes" 243 r.Ex.nodes;
  Alcotest.(check bool) "incomplete" false
    (Soctam_core.Outcome.is_complete r.Ex.outcome)

let exhaustive_counts_partitions () =
  let soc = small_soc 3L ~cores:4 in
  let table = Tt.build soc ~max_width:10 in
  let r = Runners.ex_run ~table ~total_width:10 ~tams:3 () in
  Alcotest.(check int) "p(10,3) = 8" 8 r.Ex.partitions_total;
  Alcotest.(check int) "all solved" 8 r.Ex.partitions_solved;
  Alcotest.(check bool) "complete" true
    (Soctam_core.Outcome.is_complete r.Ex.outcome)

let exhaustive_zero_budget_truncates () =
  (* The deadline is monotonic and consulted only after the first
     partition of each chunk: even a zero budget must return a
     well-formed truncated incumbent, never raise. *)
  let soc = small_soc 11L ~cores:5 in
  let table = Tt.build soc ~max_width:12 in
  let r = Runners.ex_run ~time_budget:0. ~table ~total_width:12 ~tams:3 () in
  Alcotest.(check int) "widths sum to W" 12
    (Soctam_util.Intutil.sum r.Ex.widths);
  Alcotest.(check int) "assignment covers every core" 5
    (Array.length r.Ex.assignment);
  Alcotest.(check bool) "at least one partition solved" true
    (r.Ex.partitions_solved >= 1);
  Alcotest.(check bool) "truncated run not marked complete" false
    (Soctam_core.Outcome.is_complete r.Ex.outcome);
  let full = Runners.ex_run ~table ~total_width:12 ~tams:3 () in
  Alcotest.(check bool) "incumbent no better than optimum" true
    (r.Ex.time >= full.Ex.time)

let exhaustive_parallel_matches_sequential () =
  (* One cheap fixed-instance determinism check in tier 1; the seeded
     100-case qcheck version lives in test_parallel.ml (@runtest-slow). *)
  let soc = small_soc 21L ~cores:5 in
  let table = Tt.build soc ~max_width:11 in
  let seq = Runners.ex_run ~jobs:1 ~table ~total_width:11 ~tams:3 () in
  let par = Runners.ex_run ~jobs:4 ~table ~total_width:11 ~tams:3 () in
  Alcotest.(check int) "time" seq.Ex.time par.Ex.time;
  Alcotest.(check (array int)) "widths" seq.Ex.widths par.Ex.widths;
  Alcotest.(check (array int)) "assignment" seq.Ex.assignment
    par.Ex.assignment;
  let pseq = Runners.pe_run ~jobs:1 ~table ~total_width:11 ~max_tams:4 () in
  let ppar = Runners.pe_run ~jobs:4 ~table ~total_width:11 ~max_tams:4 () in
  Alcotest.(check int) "heuristic time" pseq.Pe.time ppar.Pe.time;
  Alcotest.(check (array int)) "heuristic widths" pseq.Pe.widths
    ppar.Pe.widths;
  Alcotest.(check (array int)) "heuristic assignment" pseq.Pe.assignment
    ppar.Pe.assignment

let exhaustive_beats_or_matches_heuristic =
  QCheck.Test.make ~name:"Exhaustive: never worse than Partition_evaluate"
    ~count:10
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:10 in
      let heuristic = Runners.pe_run_fixed ~table ~total_width:10 ~tams:2 () in
      let exact = Runners.ex_run ~table ~total_width:10 ~tams:2 () in
      exact.Ex.time <= heuristic.Pe.time)

(* -- Co_optimize ----------------------------------------------------------- *)

let pipeline_invariants =
  QCheck.Test.make ~name:"Co_optimize: final step only improves" ~count:10
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let r = Runners.co_run ~max_tams:4 soc ~total_width:12 in
      let arch = r.Co.architecture in
      r.Co.final_time <= r.Co.heuristic_time
      && r.Co.final_time = arch.Soctam_tam.Architecture.time
      && Soctam_util.Intutil.sum arch.Soctam_tam.Architecture.widths = 12)

let pipeline_lower_bound =
  QCheck.Test.make ~name:"Co_optimize: never below the bottleneck bound"
    ~count:10
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:12 in
      let r = Runners.co_run ~table ~max_tams:4 soc ~total_width:12 in
      r.Co.final_time >= Tt.bottleneck_bound table ~width:12)

let pipeline_fixed_tams () =
  let soc = small_soc 44L ~cores:6 in
  let r = Runners.co_run_fixed_tams soc ~total_width:12 ~tams:3 in
  Alcotest.(check int) "three TAMs" 3
    (Array.length r.Co.architecture.Soctam_tam.Architecture.widths)

let pipeline_rejects_narrow_table () =
  let soc = small_soc 45L ~cores:3 in
  let table = Tt.build soc ~max_width:8 in
  Alcotest.check_raises "table too narrow"
    (Invalid_argument "Co_optimize: supplied table narrower than total width")
    (fun () -> ignore (Runners.co_run ~table soc ~total_width:16))

let final_step_matches_exact =
  QCheck.Test.make
    ~name:"Co_optimize: final time is optimal for the chosen partition"
    ~count:8
    QCheck.(int_range 1 40)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:10 in
      let r = Runners.co_run ~table ~max_tams:3 soc ~total_width:10 in
      let times =
        Tt.matrix table ~widths:r.Co.architecture.Soctam_tam.Architecture.widths
      in
      r.Co.final_proven_optimal
      && r.Co.final_time = (Exact.solve_bb ~times ()).Exact.time)

(* -- Bounds ----------------------------------------------------------------- *)

let bounds_admissible =
  QCheck.Test.make ~name:"Bounds: never above the exhaustive optimum"
    ~count:8
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:9 in
      let bounds = Soctam_core.Bounds.compute table ~total_width:9 in
      let optimum =
        List.fold_left
          (fun acc tams ->
            min acc (Runners.ex_run ~table ~total_width:9 ~tams ()).Ex.time)
          max_int [ 1; 2; 3 ]
      in
      bounds.Soctam_core.Bounds.combined <= optimum
      && bounds.Soctam_core.Bounds.combined
         = max bounds.Soctam_core.Bounds.bottleneck
             bounds.Soctam_core.Bounds.wire_volume)

let bounds_bottleneck_core () =
  let soc = small_soc 21L ~cores:6 in
  let table = Tt.build soc ~max_width:10 in
  let b = Soctam_core.Bounds.compute table ~total_width:10 in
  Alcotest.(check int) "bottleneck agrees with the table"
    (Tt.bottleneck_bound table ~width:10)
    b.Soctam_core.Bounds.bottleneck;
  Alcotest.(check int) "core agrees"
    (Tt.bottleneck_core table ~width:10)
    b.Soctam_core.Bounds.bottleneck_core

let bounds_gap_and_saturation () =
  let soc = small_soc 22L ~cores:4 in
  let table = Tt.build soc ~max_width:8 in
  let b = Soctam_core.Bounds.compute table ~total_width:8 in
  Alcotest.(check (float 1e-9)) "zero gap at the bound" 0.
    (Soctam_core.Bounds.gap_pct b ~time:b.Soctam_core.Bounds.combined);
  Alcotest.(check bool) "gap positive above" true
    (Soctam_core.Bounds.gap_pct b ~time:(b.Soctam_core.Bounds.combined + 10)
    > 0.);
  Alcotest.(check bool) "saturated detection" true
    (Soctam_core.Bounds.saturated b ~time:b.Soctam_core.Bounds.bottleneck);
  Alcotest.(check bool) "not saturated above" false
    (Soctam_core.Bounds.saturated b
       ~time:(b.Soctam_core.Bounds.bottleneck + 1))

let bounds_validation () =
  let soc = small_soc 23L ~cores:3 in
  let table = Tt.build soc ~max_width:6 in
  match Soctam_core.Bounds.compute table ~total_width:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrow table accepted"

let suite =
  [
    qtest table_matches_wrapper;
    test "time table: accessors" table_accessors;
    test "time table: matrix" table_matrix;
    test "time table: bottleneck" bottleneck_identifies_max;
    test "Core_assign: Figure 2 reproduced" figure2_reproduced;
    test "Core_assign: early exit" core_assign_exceeded;
    test "Core_assign: threshold boundary" core_assign_threshold_boundary;
    test "Core_assign: bad inputs" core_assign_rejects_bad_inputs;
    qtest core_assign_complete_and_consistent;
    qtest core_assign_never_beats_exact;
    qtest core_assign_heuristic_quality;
    qtest direct_matches_bounded;
    qtest randomized_variant_is_sound;
    qtest randomized_restarts_help;
    qtest randomized_never_beats_exact;
    test "Core_assign: randomized validation" randomized_validation;
    qtest sweep_points_consistent;
    test "Sweep: knee selection" sweep_knee_selection;
    test "Sweep: validation" sweep_validation;
    qtest pruning_preserves_best;
    qtest stats_account_for_everything;
    qtest partition_result_is_consistent;
    qtest tau_reset_weakens_pruning_only;
    test "Partition_evaluate: fixed B" run_fixed_restricts_b;
    test "Partition_evaluate: validation" partition_evaluate_validation;
    test "Partition_evaluate: B capped by width" fewer_tams_than_requested_is_fine;
    test "Partition_evaluate: initial_best seeding" initial_best_seeding;
    qtest exhaustive_is_optimal;
    test "Exhaustive: budget degradation" exhaustive_budget_degrades;
    test "Exhaustive: jobs=1 node-limit truncation pinned"
      exhaustive_node_limit_truncation_pinned;
    test "Exhaustive: partition accounting" exhaustive_counts_partitions;
    test "Exhaustive: zero budget still well-formed"
      exhaustive_zero_budget_truncates;
    test "parallel evaluation matches sequential"
      exhaustive_parallel_matches_sequential;
    qtest exhaustive_beats_or_matches_heuristic;
    qtest pipeline_invariants;
    qtest pipeline_lower_bound;
    test "Co_optimize: fixed TAM count" pipeline_fixed_tams;
    test "Co_optimize: narrow table rejected" pipeline_rejects_narrow_table;
    qtest final_step_matches_exact;
    qtest bounds_admissible;
    test "Bounds: bottleneck core" bounds_bottleneck_core;
    test "Bounds: gap and saturation" bounds_gap_and_saturation;
    test "Bounds: validation" bounds_validation;
  ]
