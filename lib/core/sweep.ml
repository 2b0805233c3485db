type point = {
  width : int;
  tams : int;
  widths : int array;
  time : int;
  lower_bound : int;
  gap_pct : float;
  saturated : bool;
}

type result = { points : point list; outcome : Outcome.t }

let point_of_sp (p : Checkpoint.sweep_point) =
  {
    width = p.Checkpoint.sp_width;
    tams = p.Checkpoint.sp_tams;
    widths = p.Checkpoint.sp_widths;
    time = p.Checkpoint.sp_time;
    lower_bound = p.Checkpoint.sp_lower_bound;
    gap_pct = p.Checkpoint.sp_gap_pct;
    saturated = p.Checkpoint.sp_saturated;
  }

let sp_of_point p =
  {
    Checkpoint.sp_width = p.width;
    sp_tams = p.tams;
    sp_widths = p.widths;
    sp_time = p.time;
    sp_lower_bound = p.lower_bound;
    sp_gap_pct = p.gap_pct;
    sp_saturated = p.saturated;
  }

let restore_sw ~cfg ~widths (cp : Checkpoint.t) =
  let check cond msg = if not cond then invalid_arg msg in
  match cp.Checkpoint.state with
  | Checkpoint.Sweep s ->
      check
        (s.Checkpoint.sw_max_tams = cfg.Run_config.max_tams)
        "Sweep: resume checkpoint was taken with a different max_tams";
      check
        (List.map (fun p -> p.Checkpoint.sp_width) s.Checkpoint.sw_points
         @ s.Checkpoint.sw_pending
        = widths)
        "Sweep: resume checkpoint does not match this width list";
      (match (cp.Checkpoint.soc, cfg.Run_config.soc_name) with
      | Some a, Some b ->
          check (String.equal a b)
            "Sweep: resume checkpoint is for a different SOC"
      | _ -> ());
      s
  | Checkpoint.Partition_evaluate _ | Checkpoint.Exhaustive _
  | Checkpoint.Pack _ | Checkpoint.Anneal _ | Checkpoint.Race _ ->
      invalid_arg "Sweep: resume checkpoint is for a different solver"

let run_with (cfg : Run_config.t) soc ~widths =
  if widths = [] then invalid_arg "Sweep.run_with: empty width list";
  List.iter
    (fun w -> if w < 1 then invalid_arg "Sweep.run_with: widths must be >= 1")
    widths;
  let stats = cfg.Run_config.stats in
  let table =
    match cfg.Run_config.table with
    | Some t ->
        if Time_table.max_width t < List.fold_left max 1 widths then
          invalid_arg "Sweep: supplied table narrower than the widest sweep \
                       point";
        t
    | None -> Time_table.build ~stats soc ~max_width:(List.fold_left max 1 widths)
  in
  let restored = Option.map (restore_sw ~cfg ~widths) cfg.Run_config.resume in
  let done_rev =
    ref
      (match restored with
      | Some s -> List.rev_map point_of_sp s.Checkpoint.sw_points
      | None -> [])
  in
  let pending =
    ref
      (match restored with Some s -> s.Checkpoint.sw_pending | None -> widths)
  in
  let lc = Lifecycle.start cfg in
  let checkpoint_now ?inner () =
    {
      Checkpoint.soc = cfg.Run_config.soc_name;
      (* A sweep checkpoint carries no counters of its own: the
         completed widths' observability totals live in the interrupted
         process, and the interrupted width's partial counters travel
         inside its embedded token. *)
      counters = [];
      state =
        Checkpoint.Sweep
          {
            Checkpoint.sw_max_tams = cfg.Run_config.max_tams;
            sw_points = List.rev_map sp_of_point !done_rev;
            sw_pending = !pending;
            sw_inner = inner;
          };
    }
  in
  (* The per-width run inherits the sweep's policy but never writes its
     own checkpoints: the sweep is the checkpointed unit. A width
     truncated mid-search leaves its resume token embedded in the sweep
     checkpoint ([sw_inner]), so the head pending width resumes where
     it stopped instead of re-running whole. The sweep's remaining
     budget is handed down so an expiry inside a width stops that
     width's search promptly. *)
  let inner_cfg ~resume remaining =
    let c = Run_config.with_table table cfg in
    let c =
      {
        c with
        Run_config.checkpoint_path = None;
        resume;
        time_budget = remaining;
      }
    in
    c
  in
  let inner_resume =
    ref (match restored with Some s -> s.Checkpoint.sw_inner | None -> None)
  in
  (* The sweep's own stop order: cancellation, then the deadline, both
     checked before each width; the sweep has no slices of its own. *)
  let halt ?inner make =
    let cp = checkpoint_now ?inner () in
    Lifecycle.save lc cp;
    Lifecycle.stop (make cp)
  in
  let widths () =
    while !pending <> [] do
      let width = List.hd !pending in
      let remaining = Lifecycle.remaining lc in
      if cfg.Run_config.cancel () then
        halt (fun cp -> Outcome.Interrupted cp);
      if match remaining with Some r -> r <= 0. | None -> false then
        halt (fun cp -> Outcome.Budget_exhausted cp);
      let resume = !inner_resume in
      inner_resume := None;
      let result =
        Soctam_obs.Obs.span stats
          (Printf.sprintf "sweep/width%d" width)
          (fun () ->
            Co_optimize.run_with (inner_cfg ~resume remaining) soc
              ~total_width:width)
      in
      (* On truncation the width's own token (partial incumbent,
         cursor, counters) is embedded in the sweep checkpoint, so a
         resume picks the width up mid-search. *)
      match result.Co_optimize.outcome with
      | Outcome.Interrupted inner ->
          halt ~inner (fun cp -> Outcome.Interrupted cp)
      | Outcome.Budget_exhausted inner ->
          halt ~inner (fun cp -> Outcome.Budget_exhausted cp)
      | Outcome.Complete ->
          let bounds = Bounds.compute table ~total_width:width in
          let partition =
            result.Co_optimize.architecture.Soctam_tam.Architecture.widths
          in
          let time = result.Co_optimize.final_time in
          done_rev :=
            {
              width;
              tams = Array.length partition;
              widths = partition;
              time;
              lower_bound = bounds.Bounds.combined;
              gap_pct = Bounds.gap_pct bounds ~time;
              saturated = Bounds.saturated bounds ~time;
            }
            :: !done_rev;
          pending := List.tl !pending;
          if !pending <> [] then Lifecycle.save lc (checkpoint_now ())
    done
  in
  let outcome = Lifecycle.run lc widths in
  { points = List.rev !done_rev; outcome }

let knee ?(tolerance_pct = 5.) points =
  match points with
  | [] -> None
  | _ ->
      let best =
        List.fold_left (fun acc p -> min acc p.time) max_int points
      in
      let admissible p =
        float_of_int p.time
        <= float_of_int best *. (1. +. (tolerance_pct /. 100.))
      in
      List.filter admissible points
      |> List.fold_left
           (fun acc p ->
             match acc with
             | Some q when q.width <= p.width -> acc
             | Some _ | None -> Some p)
           None

let pp ppf points =
  Format.fprintf ppf "@[<v>%6s %4s %-18s %10s %10s %7s %s@,"
    "W" "B" "partition" "time" "bound" "gap%" "";
  List.iter
    (fun p ->
      Format.fprintf ppf "%6d %4d %-18s %10d %10d %7.2f %s@," p.width p.tams
        (Format.asprintf "%a" Soctam_tam.Architecture.pp_partition p.widths)
        p.time p.lower_bound p.gap_pct
        (if p.saturated then "saturated" else ""))
    points;
  Format.fprintf ppf "@]"
