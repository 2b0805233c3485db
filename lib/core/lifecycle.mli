(** The run lifecycle every resumable engine shares.

    A resumable engine walks its work in slices
    ({!Run_config.slice_size}) and, between two slices, decides whether
    to go on: a slice limit, a cancellation request or an expired
    deadline stops it with a resume token, anything else saves a
    checkpoint and continues. A run that reaches the end removes its
    checkpoint file, and a resumed run first replays the counters its
    token carries. This module is the one home of that policy; each
    engine supplies only its own checkpoint payload
    (a [unit -> Checkpoint.t] thunk) and its slice loop. DESIGN.md §12
    describes the lifecycle and its resume invariants. *)

type t
(** One run's lifecycle state: its configuration, its deadline and the
    number of slices done so far. *)

val start : Run_config.t -> t
(** Begin a run now. The deadline is [cfg.time_budget] seconds from now
    on the monotonic clock ({!Soctam_util.Timer}); no budget, no
    deadline. *)

val out_of_time : t -> bool
(** Has the deadline passed? Always [false] without a budget. *)

val remaining : t -> float option
(** Seconds left before the deadline, never negative; [None] without a
    budget. *)

val slice_done : t -> unit
(** Count one finished slice (for [cfg.slice_limit]). *)

val boundary : t -> (unit -> Checkpoint.t) -> unit
(** The slice-boundary policy, checked in this order:
    + [cfg.slice_limit] slices done: stop with [Budget_exhausted];
    + [cfg.cancel ()]: stop with [Interrupted];
    + the deadline has passed: stop with [Budget_exhausted];
    + otherwise save a checkpoint ({!save}) and return.

    A stop saves its token first and leaves through {!run}. The thunk is
    forced at most once per call, and not at all when the run neither
    stops nor has a checkpoint path. *)

val stop : Outcome.t -> 'a
(** Leave the body of {!run} with this outcome, for the stops an engine
    decides itself (a truncated slice). The caller saves the token. *)

val run : t -> (unit -> unit) -> Outcome.t
(** [run lc body] runs an engine's slice loop. When [body] returns, the
    run is [Complete] and the file at [cfg.checkpoint_path], if any, is
    removed: a finished run leaves no stale resume bait behind. A stop
    raised by {!boundary} or {!stop} returns that stop's outcome and
    keeps the file. *)

val save : t -> Checkpoint.t -> unit
(** Write the document to [cfg.checkpoint_path] (atomically, see
    {!Checkpoint.save}); nothing without a path.
    @raise Failure ["checkpoint write failed: ..."] when the write
    fails. *)

val replay : t -> unit
(** Replay the resume token's counters into [cfg.stats], so a resumed
    collector converges to an uninterrupted run's totals. Nothing on a
    fresh run, with stats off, or when [cfg.resume_replay] is [false]
    (the racer resumes one engine many times into one collector). *)

val resumed : t -> string -> int
(** The named counter as the resume token carries it; [0] on a fresh
    run or when the token does not carry it. Engines whose checkpoints
    must carry solver-owned work counters start from these. *)
