(** A small fixed-size [Domain] pool with work-stealing chunk
    distribution.

    The partition fan-out of [Partition_evaluate] and [Exhaustive] is
    embarrassingly parallel: every work item needs only read-only shared
    state (the time table), so the only coordination required is (1)
    carving an indexable range into contiguous chunks, (2) running the
    chunks on a bounded number of domains, and (3) a shared best-known
    bound so the paper's early-termination pruning keeps biting across
    domains. This module provides exactly those three pieces and nothing
    else; everything policy-shaped (what a chunk computes, how results
    are reduced) stays with the caller, which is what makes the
    deterministic reductions easy to audit.

    One scheduler is provided: {!Team} + {!map_chunks}. Domains are
    spawned once per team and parked between rounds, each worker owns an
    atomic range descriptor it claims adaptive chunks from, and idle
    workers steal the top half of a victim's descriptor.

    Determinism contract: {!map_chunks} returns chunks sorted by
    [c_lo], and the chunks always tile the requested range exactly —
    every index covered exactly once — no matter how steals interleave.
    A caller whose per-chunk result is reduced by an associative,
    chunk-boundary-independent operator (the solver's min-by
    [(time, rank)]) therefore gets byte-identical reductions at every
    [jobs] value. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible default for [-j]. *)

val split : chunks:int -> length:int -> (int * int) array
(** [split ~chunks ~length] divides the index range [0 .. length-1] into
    at most [chunks] contiguous [(lo, hi)] half-open ranges. Every index
    is covered exactly once, ranges are in increasing order, and their
    sizes differ by at most one (the leading ranges take the remainder).
    Empty when [length <= 0]; fewer than [chunks] ranges when
    [length < chunks] (never an empty range). *)

module Team : sig
  (** A persistent set of worker domains. [Domain.spawn] costs
      milliseconds on a small host — more than an entire evaluation
      slice — so the work-stealing scheduler amortizes it: a team
      spawns its [jobs - 1] domains once, parks them on a condition
      variable, and every {!map_chunks} round is a broadcast plus a
      barrier. Worker [0] is always the calling domain; a [jobs = 1]
      team spawns nothing and runs rounds inline, so the sequential
      path is the parallel path with one worker, not separate code. *)

  type t

  val create : ?oversubscribe:bool -> jobs:int -> unit -> t
  (** Spawn a team of workers: the effective size is
      [min jobs (recommended_jobs ())] — [size - 1] domains plus the
      caller. The cap is the oversubscription guard: OCaml 5 minor
      collections stop the world across every running domain, so more
      domains than cores turns each collection into an OS-scheduler
      rendezvous (measured ~13x slowdown for an allocation-heavy round
      at 8 domains on a 1-core host) while adding no parallelism. The
      cap never changes results — {!map_chunks} reductions are
      chunk-boundary independent. [oversubscribe:true] (default false)
      disables the cap: the determinism test suite uses it to exercise
      real multi-worker interleavings on any host.
      @raise Invalid_argument when [jobs < 1]. *)

  val size : t -> int
  (** The effective worker count (after the oversubscription cap). *)

  val shutdown : t -> unit
  (** Wake every parked worker, let it exit, and join its domain.
      Idempotent; the team must not be used afterwards. *)

  val with_team : ?oversubscribe:bool -> jobs:int -> (t -> 'a) -> 'a
  (** [with_team ~jobs f] runs [f] with a fresh team and guarantees
      {!shutdown} on every exit path. *)
end

type 'a chunk = { c_lo : int; c_hi : int; c_value : 'a }
(** One scheduled chunk: [f] was applied to the half-open index range
    [c_lo, c_hi). *)

val map_chunks :
  ?stats:Soctam_obs.Obs.t ->
  ?min_chunk:int ->
  Team.t ->
  length:int ->
  f:(worker:int -> lo:int -> hi:int -> 'a) ->
  unit ->
  'a chunk array
(** [map_chunks team ~length ~f ()] applies [f] to contiguous chunks
    that together tile [0, length) exactly, scheduled by work stealing:

    - every worker starts with one balanced contiguous share (the
      {!split} grid over [Team.size] workers);
    - an owner claims chunks off the {e low} end of its descriptor,
      halving what remains per claim (coarse first, finer toward the
      tail) and never claiming below [min_chunk] (default 256) except
      to swallow the final sub-[2 * min_chunk] tail whole;
    - a worker whose descriptor is empty steals the {e top} half of
      another worker's descriptor, so contiguity of every descriptor is
      preserved and claimed chunks plus descriptors always partition
      the range;
    - a worker that finds nothing to steal retries a bounded number of
      sweeps and then leaves the round rather than spin — on a host
      with fewer cores than workers, spinning would starve the very
      workers holding the remaining chunks.

    The [worker] index passed to [f] identifies the worker slot
    ([0 .. Team.size - 1]); at most one chunk runs per slot at any
    time, so per-slot mutable scratch state in the caller is race-free.
    Results are returned sorted by [c_lo]. Chunk boundaries are {e not}
    deterministic under [jobs > 1] (they depend on steal timing);
    determinism of the overall result is the caller's reduction
    contract, see the module preamble.

    [stats] records [pool/chunks] and [pool/steals] counters (worker
    attributed) and per-chunk [pool/worker<i>] busy spans. At
    [jobs = 1] the chunk count is deterministic: the adaptive halving
    sequence of a single owner, roughly [2 * log2 (length /
    min_chunk)] chunks — the same code path, with real counter
    traffic, as any other job count.

    The first exception raised by [f] is re-raised on the caller after
    the round barrier; the remaining workers drain without starting
    new chunks.

    @raise Invalid_argument when [min_chunk < 1]. *)

module Shared_min : sig
  (** A shared monotonically non-increasing integer: the parallel form
      of the paper's best-known SOC time [tau]. Domains publish every
      completed evaluation with {!improve} and read the current bound
      with {!get}; the early-exit threshold each worker hands to
      [Core_assign] then reflects the best result found by {e any}
      domain, which is what keeps the paper's second pruning level
      effective under parallel evaluation. Reads are racy by design:
      a stale read only weakens pruning, never correctness. *)

  type t

  val create : int -> t
  (** A shared bound starting at the given value ([max_int] = no bound). *)

  val get : t -> int
  (** Current bound. *)

  val improve : t -> int -> unit
  (** [improve t v] lowers the bound to [v] if [v] is smaller; a
      compare-and-set loop, so concurrent improvements never lose the
      minimum. *)

  val publications : t -> int
  (** How many times {!improve} successfully lowered the bound since
      {!create} — the number of shared-tau publications. Sequential
      evaluation makes this the number of strict improvements; under
      parallel evaluation it additionally counts racing partial
      improvements that were themselves beaten later. *)

  type mirror
  (** A worker-local batched view of a shared bound. Reading the atomic
      cell on every partition serializes all workers on one cache line;
      the mirror instead serves reads from a plain field refreshed from
      the shared cell once every [refresh_every] reads, and publishes
      only strict local improvements. Staleness weakens pruning by at
      most [refresh_every] ranks, never correctness — the deterministic
      reduction does not depend on pruning decisions. With a single
      worker the mirror is exact: it is the only publisher, so its
      local field always equals the shared bound and the jobs=1
      threshold sequence is unchanged from the sequential original. *)

  val mirror : ?refresh_every:int -> t -> mirror
  (** A fresh mirror of [t], initially synced. [refresh_every]
      (default 32) is how many {!mirror_get} reads may be served
      between refreshes. @raise Invalid_argument when
      [refresh_every < 1]. *)

  val mirror_get : mirror -> int
  (** The locally known bound: at most [refresh_every] reads stale,
      never staler than the owner's own improvements. *)

  val mirror_improve : mirror -> int -> unit
  (** Lower the local view and, on strict improvement over it, the
      shared bound ({!improve}). Improvements already beaten locally
      are filtered without touching shared state. *)
end
