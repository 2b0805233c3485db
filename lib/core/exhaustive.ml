module Obs = Soctam_obs.Obs

(* The exact method used per partition. [Bb] is the scalable dedicated
   branch & bound; [Milp] cross-checks through the paper's §3.2 ILP
   model. Both enumerate the same partition rank space, so the engine
   machinery (slices, checkpoints, reduction) is shared; the checkpoint
   records the method and refuses to resume under the other one. *)
type solver = Bb | Milp

let method_tag = function Bb -> "bb" | Milp -> "milp"

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  partitions_total : int;
  partitions_solved : int;
  nodes : int;
  outcome : Outcome.t;
}

(* One contiguous rank chunk of the partition sequence, solved exactly.
   The first partition of a chunk is always evaluated before the
   deadline is consulted, so even a zero budget returns a well-formed
   (truncated) incumbent instead of failing. The deadline itself is a
   monotonic reading ([Timer.now_s]): a wall-clock step under NTP can
   neither cut the budget short nor extend it.

   [halted] is shared by every chunk of one slice. The chunk that stops
   early (node budget or deadline) sets it, and every chunk skips the
   partitions it has not started once it is set. A one-worker team
   claims its chunks in rank order, so the first stop ends the whole
   slice exactly as one sequential walk over it would. *)
type chunk = {
  mutable k_time : int;
  mutable k_rank : int;
  mutable k_widths : int array;
  mutable k_assignment : int array;
  mutable k_solved : int;
  mutable k_nodes : int;
}

(* [cap] is a foreign bound ([Run_config.tau_import]; [max_int] = none).
   It warm-starts the B&B incumbent — a zero assignment at the imported
   time, pruning everything that cannot strictly beat it — and gates
   the chunk best: a solve that only reproduced the warm start must not
   surface its placeholder assignment. *)
let solve_chunk ?(stats = Obs.null) ~solver ~cap ~node_limit_per_partition
    ~out_of_time ~halted ~table ~total_width ~tams ~lo ~hi () =
  let c =
    {
      k_time = max_int;
      k_rank = max_int;
      k_widths = [||];
      k_assignment = [||];
      k_solved = 0;
      k_nodes = 0;
    }
  in
  (match
     if Atomic.get halted then None
     else
       Soctam_partition.Enumerate.Odometer.create_at ~total:total_width
         ~parts:tams ~rank:lo
   with
  | None -> ()
  | Some odometer ->
      let rank = ref lo in
      let continue = ref true in
      while !continue do
        let widths =
          Soctam_partition.Enumerate.Odometer.current odometer
        in
        let times = Time_table.matrix table ~widths in
        let exact =
          match solver with
          | Milp ->
              Soctam_ilp.Exact.solve_milp
                ~node_limit:node_limit_per_partition ~times ()
          | Bb when cap = max_int ->
              Soctam_ilp.Exact.solve_bb ~node_limit:node_limit_per_partition
                ~widths ~times ()
          | Bb ->
              Soctam_ilp.Exact.solve_bb ~node_limit:node_limit_per_partition
                ~initial:(Array.make (Array.length times) 0, cap)
                ~widths ~times ()
        in
        c.k_nodes <- c.k_nodes + exact.Soctam_ilp.Exact.nodes;
        (* A solve that exhausted its node budget signals the instance
           is too hard for the budgets: keep its incumbent but stop this
           chunk, as the sequential baseline always did. *)
        if exact.Soctam_ilp.Exact.optimal then c.k_solved <- c.k_solved + 1
        else begin
          Atomic.set halted true;
          continue := false
        end;
        if exact.Soctam_ilp.Exact.time < c.k_time
           && exact.Soctam_ilp.Exact.time < cap then begin
          c.k_time <- exact.Soctam_ilp.Exact.time;
          c.k_rank <- !rank;
          c.k_widths <- Array.copy widths;
          c.k_assignment <- exact.Soctam_ilp.Exact.assignment
        end;
        incr rank;
        if !rank >= hi then continue := false
        else if !continue then begin
          if out_of_time () then begin
            Atomic.set halted true;
            continue := false
          end
          else if Atomic.get halted then continue := false
          else ignore (Soctam_partition.Enumerate.Odometer.advance odometer)
        end
      done);
  if Obs.enabled stats then begin
    Obs.add stats ~n:c.k_solved "exhaustive/partitions_solved";
    Obs.add stats ~n:c.k_nodes "exhaustive/nodes"
  end;
  c

let restore_ex ~cfg ~solver ~total_width ~tams (cp : Checkpoint.t) =
  let check cond msg = if not cond then invalid_arg msg in
  match cp.Checkpoint.state with
  | Checkpoint.Exhaustive s ->
      check
        (s.Checkpoint.ex_total_width = total_width
        && s.Checkpoint.ex_tams = tams)
        "Exhaustive: resume checkpoint is for a different instance";
      check
        (String.equal s.Checkpoint.ex_method (method_tag solver))
        "Exhaustive: resume checkpoint was taken under a different exact \
         method";
      (match (cp.Checkpoint.soc, cfg.Run_config.soc_name) with
      | Some a, Some b ->
          check (String.equal a b)
            "Exhaustive: resume checkpoint is for a different SOC"
      | _ -> ());
      s
  | Checkpoint.Partition_evaluate _ | Checkpoint.Sweep _ | Checkpoint.Pack _
  | Checkpoint.Anneal _ | Checkpoint.Race _ ->
      invalid_arg "Exhaustive: resume checkpoint is for a different solver"

let run_with ?(solver = Bb) (cfg : Run_config.t) ~table ~total_width ~tams =
  if total_width < tams then
    invalid_arg "Exhaustive.run_with: total_width must be >= tams";
  let stats = cfg.Run_config.stats in
  let total =
    Soctam_partition.Count.exact ~total:total_width ~parts:tams
  in
  let cap =
    match cfg.Run_config.tau_import with Some b -> b | None -> max_int
  in
  let restored =
    Option.map
      (restore_ex ~cfg ~solver ~total_width ~tams)
      cfg.Run_config.resume
  in
  let lc = Lifecycle.start cfg in
  (* A fresh run records the instance size once; a resumed run replays
     the interrupted run's counters instead (they already include it). *)
  (match cfg.Run_config.resume with
  | None -> Obs.add stats ~n:total "exhaustive/partitions_total"
  | Some _ -> Lifecycle.replay lc);
  let next =
    ref (match restored with Some s -> s.Checkpoint.ex_next_rank | None -> 0)
  in
  let solved =
    ref (match restored with Some s -> s.Checkpoint.ex_solved | None -> 0)
  in
  let nodes =
    ref (match restored with Some s -> s.Checkpoint.ex_nodes | None -> 0)
  in
  let best =
    ref (match restored with Some s -> s.Checkpoint.ex_best | None -> None)
  in
  let out_of_time () = Lifecycle.out_of_time lc in
  let checkpoint_now () =
    {
      Checkpoint.soc = cfg.Run_config.soc_name;
      counters =
        List.filter
          (fun (_, n) -> n > 0)
          [
            ("exhaustive/partitions_total", total);
            ("exhaustive/partitions_solved", !solved);
            ("exhaustive/nodes", !nodes);
          ];
      state =
        Checkpoint.Exhaustive
          {
            Checkpoint.ex_total_width = total_width;
            ex_tams = tams;
            ex_method = method_tag solver;
            ex_next_rank = !next;
            ex_best = !best;
            ex_solved = !solved;
            ex_nodes = !nodes;
          };
    }
  in
  let slice_len = Run_config.slice_size cfg ~length:total in
  (* Stop order, unlike the boundary-first engines: the first slice runs
     before any check (so a zero budget still solves one partition), a
     slice truncated inside stops the run at once, and the shared
     boundary runs after every other slice that leaves work to do. *)
  let slices team =
    while !next < total do
      (* The safe state to resume a truncated slice from: which
         partitions inside the slice got solved before a budget stop is
         timing-dependent, so the checkpoint rewinds to the slice start
         and the resumed run re-solves the whole slice. *)
      let cp_pre = checkpoint_now () in
      let lo = !next in
      let hi = min (lo + slice_len) total in
      let halted = Atomic.make false in
      let chunks =
        Obs.span stats "exhaustive/solve" (fun () ->
            Soctam_util.Pool.map_chunks ~stats ~min_chunk:1 team
              ~length:(hi - lo)
              ~f:(fun ~worker:_ ~lo:clo ~hi:chi ->
                solve_chunk ~stats ~solver ~cap
                  ~node_limit_per_partition:cfg.Run_config.node_limit
                  ~out_of_time ~halted ~table ~total_width ~tams
                  ~lo:(lo + clo) ~hi:(lo + chi) ())
              ())
      in
      (* Deterministic reduction, as in [Partition_evaluate]: the winner
         is the minimum by (time, rank), independent of completion
         order. *)
      Array.iter
        (fun (ch : chunk Soctam_util.Pool.chunk) ->
          let c = ch.Soctam_util.Pool.c_value in
          if Array.length c.k_widths <> 0 then
            match !best with
            | Some b
              when b.Checkpoint.eb_time < c.k_time
                   || (b.Checkpoint.eb_time = c.k_time
                      && b.Checkpoint.eb_rank < c.k_rank) ->
                ()
            | Some _ | None ->
                best :=
                  Some
                    {
                      Checkpoint.eb_time = c.k_time;
                      eb_rank = c.k_rank;
                      eb_widths = c.k_widths;
                      eb_assignment = c.k_assignment;
                    })
        chunks;
      let sum f =
        Array.fold_left
          (fun acc ch -> acc + f ch.Soctam_util.Pool.c_value)
          0 chunks
      in
      let slice_solved = sum (fun c -> c.k_solved) in
      solved := !solved + slice_solved;
      nodes := !nodes + sum (fun c -> c.k_nodes);
      next := hi;
      Lifecycle.slice_done lc;
      if slice_solved < hi - lo then begin
        (* A deadline or per-partition node budget stopped the slice
           mid-way: the incumbent keeps the partial work, the resume
           token rewinds to the slice start. *)
        Lifecycle.save lc cp_pre;
        Lifecycle.stop (Outcome.Budget_exhausted cp_pre)
      end
      else if !next < total then Lifecycle.boundary lc checkpoint_now
    done
  in
  let outcome =
    Soctam_util.Pool.Team.with_team ~oversubscribe:cfg.Run_config.oversubscribe
      ~jobs:(max 1 cfg.Run_config.jobs) (fun team ->
        Lifecycle.run lc (fun () -> slices team))
  in
  match !best with
  | None when cap < max_int ->
      (* Every partition solved so far only reproduced the imported
         bound: there is nothing of this engine's own to report. A
         completed run in this state is a proof that no architecture
         beats the import. The racer (the only caller that imports)
         reads this as "no improvement"; the empty arrays never reach a
         human-facing surface. *)
      {
        widths = [||];
        time = cap;
        assignment = [||];
        partitions_total = total;
        partitions_solved = !solved;
        nodes = !nodes;
        outcome;
      }
  | None ->
      invalid_arg
        "Exhaustive.run_with: no partition evaluated (budget too small)"
  | Some b ->
      {
        widths = b.Checkpoint.eb_widths;
        time = b.Checkpoint.eb_time;
        assignment = b.Checkpoint.eb_assignment;
        partitions_total = total;
        partitions_solved = !solved;
        nodes = !nodes;
        outcome;
      }
