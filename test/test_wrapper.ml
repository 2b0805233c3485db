(* Tests for Soctam_wrapper.Design: wrapper scan chain construction, the
   testing-time formula, width sweeps and Pareto analysis. *)

module Design = Soctam_wrapper.Design
module Core_data = Soctam_model.Core_data

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

let core ?(inputs = 0) ?(outputs = 0) ?(bidirs = 0) ?(scan_chains = [])
    ~patterns () =
  Core_data.make ~id:1 ~name:"t" ~inputs ~outputs ~bidirs ~scan_chains
    ~patterns ()

(* -- formula ------------------------------------------------------------- *)

let formula_cases () =
  Alcotest.(check int) "scan core" ((1 + 10) * 5 + 7)
    (Design.test_time ~patterns:5 ~scan_in:10 ~scan_out:7);
  Alcotest.(check int) "symmetric" ((1 + 4) * 3 + 4)
    (Design.test_time ~patterns:3 ~scan_in:4 ~scan_out:4);
  Alcotest.(check int) "no cells: one cycle per pattern" 9
    (Design.test_time ~patterns:9 ~scan_in:0 ~scan_out:0)

(* -- hand-checkable designs ---------------------------------------------- *)

let memory_core_design () =
  (* 10 inputs, 6 outputs, no scan, 4 patterns, width 4:
     si = ceil(10/4) = 3, so = ceil(6/4) = 2, T = (1+3)*4 + 2 = 18. *)
  let c = core ~inputs:10 ~outputs:6 ~patterns:4 () in
  let d = Design.design c ~width:4 in
  Alcotest.(check int) "si" 3 d.Design.scan_in_max;
  Alcotest.(check int) "so" 2 d.Design.scan_out_max;
  Alcotest.(check int) "time" 18 d.Design.time

let single_width_design () =
  (* Everything concatenates into one wrapper chain. *)
  let c = core ~inputs:3 ~outputs:5 ~scan_chains:[ 8; 4 ] ~patterns:2 () in
  let d = Design.design c ~width:1 in
  Alcotest.(check int) "si = ffs + inputs" 15 d.Design.scan_in_max;
  Alcotest.(check int) "so = ffs + outputs" 17 d.Design.scan_out_max;
  Alcotest.(check int) "time" ((1 + 17) * 2 + 15) d.Design.time

let scan_partitioning () =
  (* Chains 8, 7, 2 over width 2: LPT places 8 alone and {7, 2} together,
     so the longest wrapper chain carries 9 flip-flops. No I/O cells. *)
  let c = core ~scan_chains:[ 8; 7; 2 ] ~patterns:1 () in
  let d = Design.design c ~width:2 in
  Alcotest.(check int) "si max" 9 d.Design.scan_in_max;
  Alcotest.(check int) "so max" 9 d.Design.scan_out_max

let bidirs_count_both_sides () =
  (* Only bidirs: each adds to scan-in and scan-out of its chain. *)
  let c = core ~bidirs:9 ~patterns:2 () in
  let d = Design.design c ~width:3 in
  Alcotest.(check int) "si" 3 d.Design.scan_in_max;
  Alcotest.(check int) "so" 3 d.Design.scan_out_max

let internal_chain_is_atomic () =
  (* A single 50-bit internal chain cannot be split however wide the TAM:
     si stays >= 50. *)
  let c = core ~scan_chains:[ 50 ] ~patterns:3 () in
  let d = Design.design c ~width:16 in
  Alcotest.(check bool) "si floor" true (d.Design.scan_in_max >= 50);
  Alcotest.(check int) "time floor" ((1 + 50) * 3 + 50) d.Design.time

let used_width_minimized () =
  (* Width 8 offered, but one chain of 10 and nothing else: a single
     wrapper chain suffices for the same time. *)
  let c = core ~scan_chains:[ 10 ] ~patterns:1 () in
  let d = Design.design c ~width:8 in
  Alcotest.(check int) "uses one chain" 1 d.Design.used_width

let invalid_inputs () =
  let c = core ~inputs:1 ~patterns:1 () in
  Alcotest.check_raises "width 0"
    (Invalid_argument "Design.design: width must be >= 1") (fun () ->
      ignore (Design.design c ~width:0));
  Alcotest.check_raises "chains 0"
    (Invalid_argument "Design.with_chain_count: chains must be >= 1")
    (fun () -> ignore (Design.with_chain_count c ~chains:0));
  Alcotest.check_raises "table 0"
    (Invalid_argument "Design.time_table: max_width must be >= 1") (fun () ->
      ignore (Design.time_table c ~max_width:0))

(* -- generators ----------------------------------------------------------- *)

let arbitrary_core =
  let gen =
    QCheck.Gen.(
      let* inputs = int_range 0 60 in
      let* outputs = int_range 0 60 in
      let* bidirs = int_range 0 10 in
      let* patterns = int_range 1 50 in
      let* nchains = int_range 0 8 in
      let* scan_chains = list_repeat nchains (int_range 1 40) in
      (* A core must have something to test through the wrapper. *)
      let inputs = if inputs + outputs + bidirs + nchains = 0 then 1 else inputs in
      return (core ~inputs ~outputs ~bidirs ~scan_chains ~patterns ()))
  in
  QCheck.make gen ~print:(fun c -> Format.asprintf "%a" Core_data.pp c)

(* -- properties ----------------------------------------------------------- *)

let time_monotone_in_width =
  QCheck.Test.make ~name:"design: time non-increasing in width" ~count:150
    arbitrary_core
    (fun c ->
      let times = Design.time_table c ~max_width:24 in
      let ok = ref true in
      for w = 1 to 23 do
        if times.(w) > times.(w - 1) then ok := false
      done;
      !ok)

let table_matches_design =
  QCheck.Test.make ~name:"time_table agrees with design at every width"
    ~count:60 arbitrary_core
    (fun c ->
      let max_width = 64 in
      let times = Design.time_table c ~max_width in
      let ok = ref true in
      for w = 1 to max_width do
        if times.(w - 1) <> (Design.design c ~width:w).Design.time then
          ok := false
      done;
      !ok)

let design_internally_consistent =
  QCheck.Test.make ~name:"design: maxima, formula and used width consistent"
    ~count:150
    QCheck.(pair arbitrary_core (int_range 1 20))
    (fun (c, width) ->
      let d = Design.design c ~width in
      d.Design.scan_in_max
      = Soctam_util.Intutil.max_element d.Design.scan_in
      && d.Design.scan_out_max
         = Soctam_util.Intutil.max_element d.Design.scan_out
      && d.Design.time
         = Design.test_time ~patterns:c.Core_data.patterns
             ~scan_in:d.Design.scan_in_max ~scan_out:d.Design.scan_out_max
      && d.Design.used_width <= width
      && d.Design.used_width >= 1)

let cells_conserved =
  QCheck.Test.make ~name:"design: all cells and flip-flops placed" ~count:150
    QCheck.(pair arbitrary_core (int_range 1 20))
    (fun (c, width) ->
      let d = Design.design c ~width in
      let ffs = Core_data.scan_flip_flops c in
      Soctam_util.Intutil.sum d.Design.scan_in
      = ffs + c.Core_data.inputs + c.Core_data.bidirs
      && Soctam_util.Intutil.sum d.Design.scan_out
         = ffs + c.Core_data.outputs + c.Core_data.bidirs)

let si_at_least_longest_chain =
  QCheck.Test.make ~name:"design: longest internal chain is a floor"
    ~count:150
    QCheck.(pair arbitrary_core (int_range 1 20))
    (fun (c, width) ->
      let d = Design.design c ~width in
      d.Design.scan_in_max >= Core_data.max_scan_chain c)

(* -- pareto / max useful width ------------------------------------------- *)

let pareto_structure =
  QCheck.Test.make ~name:"pareto: increasing widths, decreasing times"
    ~count:100 arbitrary_core
    (fun c ->
      let pareto = Design.pareto_widths c ~max_width:20 in
      let rec ok = function
        | (w1, t1) :: ((w2, t2) :: _ as rest) ->
            w1 < w2 && t1 > t2 && ok rest
        | _ -> true
      in
      (match pareto with (w, _) :: _ -> w = 1 | [] -> false) && ok pareto)

let pareto_covers_table () =
  let c = core ~inputs:20 ~outputs:10 ~scan_chains:[ 12; 9; 5 ] ~patterns:7 () in
  let times = Design.time_table c ~max_width:20 in
  let pareto = Design.pareto_widths c ~max_width:20 in
  (* Every pareto point matches the table, and the table between points is
     flat at the previous pareto time. *)
  List.iter
    (fun (w, t) -> Alcotest.(check int) "pareto time" times.(w - 1) t)
    pareto

let max_useful_width_saturates =
  QCheck.Test.make ~name:"max_useful_width: wider never helps" ~count:80
    arbitrary_core
    (fun c ->
      let muw = Design.max_useful_width c in
      let horizon = muw + 8 in
      let times = Design.time_table c ~max_width:horizon in
      let saturated = ref true in
      for w = muw to horizon do
        if times.(w - 1) <> times.(muw - 1) then saturated := false
      done;
      let still_improving = muw = 1 || times.(muw - 2) > times.(muw - 1) in
      !saturated && still_improving)

let layout_always_valid =
  QCheck.Test.make ~name:"design: layout validates for every design"
    ~count:150
    QCheck.(pair arbitrary_core (int_range 1 16))
    (fun (c, width) ->
      let d = Design.design c ~width in
      Design.validate_layout c d = Ok ()
      &&
      (* with_chain_count layouts must also validate at every count *)
      let d2 = Design.with_chain_count c ~chains:(max 1 (width / 2)) in
      Design.validate_layout c d2 = Ok ())

let layout_pretty_printer () =
  let c = core ~inputs:6 ~outputs:4 ~scan_chains:[ 9; 7 ] ~patterns:3 () in
  let d = Design.design c ~width:3 in
  let s = Format.asprintf "%a" Design.pp_layout d in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub s i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  Alcotest.(check bool) "chain lines" true (contains "chain  1:");
  Alcotest.(check bool) "internal chains named" true (contains "internal")

let layout_catches_tampering () =
  let c = core ~inputs:6 ~outputs:4 ~scan_chains:[ 9; 7 ] ~patterns:3 () in
  let d = Design.design c ~width:3 in
  let tampered =
    { d with Design.scan_in = Array.map (fun x -> x + 1) d.Design.scan_in }
  in
  Alcotest.(check bool) "detected" true
    (Design.validate_layout c tampered <> Ok ());
  let missing_chain =
    {
      d with
      Design.layout =
        Array.map
          (fun p -> { p with Design.internal_chains = [] })
          d.Design.layout;
    }
  in
  Alcotest.(check bool) "missing chain detected" true
    (Design.validate_layout c missing_chain <> Ok ())

(* -- differential: kernel and heap builder against their references ---- *)

(* The min-scan greedy [Design.with_chain_count] used before the heap:
   every bidir cell to the chain minimising (max of both sides after
   the cell, scan-in), every input cell to the first shortest scan-in,
   every output cell to the first shortest scan-out. *)
let min_scan_with_chain_count (core : Core_data.t) ~chains =
  let scan_groups = min chains (Core_data.scan_chain_count core) in
  let scan_in = Array.make chains 0 in
  let scan_out = Array.make chains 0 in
  let internal = Array.make chains [] in
  let input_cells = Array.make chains 0 in
  let output_cells = Array.make chains 0 in
  let bidir_cells = Array.make chains 0 in
  if scan_groups > 0 then begin
    let packing =
      Soctam_schedule.Makespan.lpt ~durations:core.Core_data.scan_chains
        ~machines:scan_groups
    in
    Array.iteri
      (fun g load ->
        scan_in.(g) <- load;
        scan_out.(g) <- load)
      packing.Soctam_schedule.Makespan.loads;
    Array.iteri
      (fun chain g -> internal.(g) <- chain :: internal.(g))
      packing.Soctam_schedule.Makespan.assignment
  end;
  for _ = 1 to core.Core_data.bidirs do
    let best = ref 0 in
    for j = 1 to chains - 1 do
      let cand = (max (scan_in.(j) + 1) (scan_out.(j) + 1), scan_in.(j)) in
      let cur =
        (max (scan_in.(!best) + 1) (scan_out.(!best) + 1), scan_in.(!best))
      in
      if cand < cur then best := j
    done;
    scan_in.(!best) <- scan_in.(!best) + 1;
    scan_out.(!best) <- scan_out.(!best) + 1;
    bidir_cells.(!best) <- bidir_cells.(!best) + 1
  done;
  for _ = 1 to core.Core_data.inputs do
    let j = Soctam_util.Select.min_index_by (fun x -> x) scan_in in
    scan_in.(j) <- scan_in.(j) + 1;
    input_cells.(j) <- input_cells.(j) + 1
  done;
  for _ = 1 to core.Core_data.outputs do
    let j = Soctam_util.Select.min_index_by (fun x -> x) scan_out in
    scan_out.(j) <- scan_out.(j) + 1;
    output_cells.(j) <- output_cells.(j) + 1
  done;
  let used = ref 0 in
  for j = 0 to chains - 1 do
    if scan_in.(j) + scan_out.(j) > 0 then incr used
  done;
  let scan_in_max = Soctam_util.Intutil.max_element scan_in in
  let scan_out_max = Soctam_util.Intutil.max_element scan_out in
  {
    Design.requested_width = chains;
    used_width = !used;
    scan_in;
    scan_out;
    scan_in_max;
    scan_out_max;
    time =
      Design.test_time ~patterns:core.Core_data.patterns ~scan_in:scan_in_max
        ~scan_out:scan_out_max;
    layout =
      Array.init chains (fun j ->
          {
            Design.internal_chains = List.rev internal.(j);
            input_cells = input_cells.(j);
            output_cells = output_cells.(j);
            bidir_cells = bidir_cells.(j);
          });
  }

(* The time table as a running minimum over full layouts. *)
let layout_time_table core ~max_width =
  let best = ref max_int in
  Array.init max_width (fun i ->
      best := min !best (Design.with_chain_count core ~chains:(i + 1)).Design.time;
      !best)

(* [design] without the natural-width stop: every chain count 1..width. *)
let full_loop_design core ~width =
  let best = ref (Design.with_chain_count core ~chains:1) in
  for n = 2 to width do
    let cand = Design.with_chain_count core ~chains:n in
    let b = !best in
    if
      cand.Design.time < b.Design.time
      || (cand.Design.time = b.Design.time
         && cand.Design.used_width < b.Design.used_width)
    then best := cand
  done;
  { !best with Design.requested_width = width }

(* Every internal chain and cell on a wrapper chain of its own. *)
let natural c =
  Core_data.scan_chain_count c + c.Core_data.bidirs
  + max c.Core_data.inputs c.Core_data.outputs

let builtin_socs () =
  [
    ("d695", Soctam_soc_data.D695.soc);
    ("p21241", Soctam_soc_data.Philips.soc_p21241 ());
    ("p31108", Soctam_soc_data.Philips.soc_p31108 ());
    ("p93791", Soctam_soc_data.Philips.soc_p93791 ());
  ]

let each_builtin_core f =
  List.iter
    (fun (name, soc) ->
      for i = 0 to Soctam_model.Soc.core_count soc - 1 do
        f (Printf.sprintf "%s core %d" name (i + 1)) (Soctam_model.Soc.core soc i)
      done)
    (builtin_socs ())

let kernel_matches_layouts_on_builtins () =
  each_builtin_core (fun label c ->
      Alcotest.(check (array int))
        label
        (layout_time_table c ~max_width:256)
        (Design.time_table c ~max_width:256))

let heap_matches_min_scan_on_builtins () =
  each_builtin_core (fun label c ->
      for n = 1 to 128 do
        if Design.with_chain_count c ~chains:n <> min_scan_with_chain_count c ~chains:n
        then Alcotest.failf "%s: chains %d differ from the min-scan greedy" label n
      done)

let natural_stop_on_builtins () =
  each_builtin_core (fun label c ->
      List.iter
        (fun width ->
          if Design.design c ~width <> full_loop_design c ~width then
            Alcotest.failf "%s: design differs at width %d" label width)
        [ 1; 7; 64; 200 ])

(* Cores with up to 24 internal chains, so that widths fall on both
   sides of the internal-chain count and of [natural]; memory cores
   (no internal chains) and bidirs included. *)
let differential_core =
  let gen =
    QCheck.Gen.(
      let* inputs = int_range 0 40 in
      let* outputs = int_range 0 40 in
      let* bidirs = int_range 0 12 in
      let* patterns = int_range 1 60 in
      let* nchains = frequency [ (1, return 0); (4, int_range 1 24) ] in
      let* scan_chains = list_repeat nchains (int_range 1 60) in
      let inputs = if inputs + outputs + bidirs + nchains = 0 then 1 else inputs in
      return (core ~inputs ~outputs ~bidirs ~scan_chains ~patterns ()))
  in
  QCheck.make gen ~print:(fun c -> Format.asprintf "%a" Core_data.pp c)

let kernel_matches_layouts =
  QCheck.Test.make ~name:"time_table kernel = running min of layout times"
    ~count:250 differential_core
    (fun c ->
      let max_width = natural c + 8 in
      Design.time_table c ~max_width = layout_time_table c ~max_width)

let heap_matches_min_scan =
  QCheck.Test.make ~name:"with_chain_count heap = min-scan greedy" ~count:200
    differential_core
    (fun c ->
      let ok = ref true in
      for n = 1 to min 128 (natural c + 8) do
        if Design.with_chain_count c ~chains:n <> min_scan_with_chain_count c ~chains:n
        then ok := false
      done;
      !ok)

let natural_stop_matches_full_loop =
  QCheck.Test.make ~name:"design natural-width stop = full chain-count loop"
    ~count:200
    QCheck.(pair differential_core (int_range 1 90))
    (fun (c, width) -> Design.design c ~width = full_loop_design c ~width)

let max_useful_width_past_256 () =
  (* Scan-free, 600 inputs: every width up to 600 shortens scan-in. *)
  let c = core ~inputs:600 ~patterns:3 () in
  Alcotest.(check int) "saturates at 600" 600 (Design.max_useful_width c);
  let times = Design.time_table c ~max_width:601 in
  Alcotest.(check bool) "599 -> 600 still helps" true (times.(598) > times.(599));
  Alcotest.(check int) "flat past 600" times.(599) times.(600)

(* -- Front: the per-core Pareto-front memo cache --------------------------- *)

module Front = Soctam_wrapper.Front
module Obs = Soctam_obs.Obs

(* The cache is process-global: every test below starts from an empty
   cache and restores the configured capacity on exit so ordering
   between tests (and the rest of the tier-1 suite) cannot matter. *)
let with_fresh_cache f =
  let saved = Front.capacity () in
  Front.reset ();
  Fun.protect
    ~finally:(fun () ->
      Front.set_capacity saved;
      Front.reset ())
    f

let front_socs () =
  [
    ("d695", Soctam_soc_data.D695.soc, 32);
    ("p21241", Soctam_soc_data.Philips.soc_p21241 (), 24);
    ("p93791", Soctam_soc_data.Philips.soc_p93791 (), 24);
  ]

let front_identical_to_fresh () =
  with_fresh_cache (fun () ->
      List.iter
        (fun (name, soc, width) ->
          for i = 0 to Soctam_model.Soc.core_count soc - 1 do
            let c = Soctam_model.Soc.core soc i in
            let cached = Front.time_table c ~max_width:width in
            let fresh = Design.time_table c ~max_width:width in
            Alcotest.(check (array int))
              (Printf.sprintf "%s core %d: miss path" name i)
              fresh cached;
            Alcotest.(check (array int))
              (Printf.sprintf "%s core %d: hit path" name i)
              fresh
              (Front.time_table c ~max_width:width)
          done)
        (front_socs ()))

let front_narrower_and_wider_requests () =
  with_fresh_cache (fun () ->
      let c = Soctam_model.Soc.core Soctam_soc_data.D695.soc 3 in
      let wide = Front.time_table c ~max_width:40 in
      (* Narrower request served from the wide entry: a prefix. *)
      let narrow = Front.time_table c ~max_width:7 in
      Alcotest.(check (array int))
        "narrow = prefix of wide" (Array.sub wide 0 7) narrow;
      Alcotest.(check (array int))
        "narrow = fresh" (Design.time_table c ~max_width:7) narrow;
      (* Wider request recomputes and replaces the entry. *)
      let wider = Front.time_table c ~max_width:60 in
      Alcotest.(check (array int))
        "wider = fresh" (Design.time_table c ~max_width:60) wider;
      Alcotest.(check (array int))
        "old width still served" wide
        (Front.time_table c ~max_width:40))

let front_eviction_preserves_results () =
  with_fresh_cache (fun () ->
      (* Capacity 2 with 10 round-robin cores: constant thrash, every
         answer still byte-identical to a fresh computation. *)
      Front.set_capacity 2;
      let soc = Soctam_soc_data.D695.soc in
      for round = 1 to 3 do
        for i = 0 to Soctam_model.Soc.core_count soc - 1 do
          let c = Soctam_model.Soc.core soc i in
          Alcotest.(check (array int))
            (Printf.sprintf "round %d core %d" round i)
            (Design.time_table c ~max_width:24)
            (Front.time_table c ~max_width:24)
        done
      done;
      let s = Front.stats () in
      Alcotest.(check bool)
        (Printf.sprintf "evictions (%d) happened" s.Front.evictions)
        true (s.Front.evictions > 0);
      Alcotest.(check bool)
        (Printf.sprintf "entries (%d) bounded by capacity" s.Front.entries)
        true
        (s.Front.entries <= 2))

let front_hit_accounting () =
  with_fresh_cache (fun () ->
      let stats = Obs.create () in
      let soc = Soctam_soc_data.D695.soc in
      let t1 = Soctam_core.Time_table.build ~stats soc ~max_width:16 in
      let t2 = Soctam_core.Time_table.build ~stats soc ~max_width:16 in
      for core = 0 to Soctam_model.Soc.core_count soc - 1 do
        for width = 1 to 16 do
          Alcotest.(check int)
            (Printf.sprintf "core %d width %d" core width)
            (Soctam_core.Time_table.time t1 ~core ~width)
            (Soctam_core.Time_table.time t2 ~core ~width)
        done
      done;
      let front = Front.stats () in
      Alcotest.(check bool)
        (Printf.sprintf "hits (%d) > 0 on the second build" front.Front.hits)
        true (front.Front.hits > 0);
      let snap = Obs.snapshot stats in
      Alcotest.(check bool)
        "wrapper/front_hits counter > 0" true
        (Obs.counter_value snap "wrapper/front_hits" > 0);
      Alcotest.(check bool)
        "wrapper/front_misses counter > 0" true
        (Obs.counter_value snap "wrapper/front_misses" > 0))

let front_capacity_zero_disables () =
  with_fresh_cache (fun () ->
      Front.set_capacity 0;
      let c = Soctam_model.Soc.core Soctam_soc_data.D695.soc 0 in
      let a = Front.time_table c ~max_width:12 in
      let b = Front.time_table c ~max_width:12 in
      Alcotest.(check (array int))
        "still correct" (Design.time_table c ~max_width:12) a;
      Alcotest.(check (array int)) "still correct again" a b;
      let s = Front.stats () in
      Alcotest.(check int) "no entries" 0 s.Front.entries;
      Alcotest.(check int) "no hits" 0 s.Front.hits)

let front_validation () =
  with_fresh_cache (fun () ->
      let c = Soctam_model.Soc.core Soctam_soc_data.D695.soc 0 in
      Alcotest.check_raises "max_width 0"
        (Invalid_argument "Front.time_table: max_width must be >= 1")
        (fun () -> ignore (Front.time_table c ~max_width:0));
      Alcotest.check_raises "negative capacity"
        (Invalid_argument "Front.set_capacity: capacity must be >= 0")
        (fun () -> Front.set_capacity (-1)))

let suite =
  [
    test "formula: cases" formula_cases;
    test "design: memory core" memory_core_design;
    test "design: width one" single_width_design;
    test "design: scan partitioning" scan_partitioning;
    test "design: bidirs both sides" bidirs_count_both_sides;
    test "design: internal chain atomic" internal_chain_is_atomic;
    test "design: used width minimized" used_width_minimized;
    test "design: invalid inputs" invalid_inputs;
    qtest time_monotone_in_width;
    qtest table_matches_design;
    qtest design_internally_consistent;
    qtest cells_conserved;
    qtest si_at_least_longest_chain;
    qtest pareto_structure;
    test "pareto: matches table" pareto_covers_table;
    qtest max_useful_width_saturates;
    test "max_useful_width: no cap at 256" max_useful_width_past_256;
    test "kernel: layout times on the built-in SOCs, W <= 256"
      kernel_matches_layouts_on_builtins;
    qtest kernel_matches_layouts;
    test "heap builder: min-scan greedy on the built-in SOCs, n <= 128"
      heap_matches_min_scan_on_builtins;
    qtest heap_matches_min_scan;
    test "design: natural-width stop on the built-in SOCs"
      natural_stop_on_builtins;
    qtest natural_stop_matches_full_loop;
    qtest layout_always_valid;
    test "layout: tampering detected" layout_catches_tampering;
    test "layout: pretty printer" layout_pretty_printer;
    test "front: identical to fresh on d695/p21241/p93791"
      front_identical_to_fresh;
    test "front: prefix stability across widths"
      front_narrower_and_wider_requests;
    test "front: eviction preserves results" front_eviction_preserves_results;
    test "front: hit accounting" front_hit_accounting;
    test "front: capacity zero disables" front_capacity_zero_disables;
    test "front: validation" front_validation;
  ]
