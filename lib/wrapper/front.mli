(** Process-wide memo cache for per-core wrapper Pareto fronts.

    [Design.time_table core ~max_width] — the core's best testing time
    at every wrapper width, the paper's per-core Pareto front — costs
    O(max_width + k^2 log k) per call for [k] internal scan chains, and
    the co-optimization layers ask for the same cores' fronts once per
    table build, per sweep width, per solver invocation. The fronts
    depend only on the core's test content, so this module keeps a
    bounded, process-wide, domain-safe (mutex-guarded) cache in front of
    the computation.

    Key: the core's content fields ([inputs]/[outputs]/[bidirs]/
    [patterns]/[scan_chains]) — deliberately not its [id] or [name], so
    content-identical cores share one entry. Bound: {!set_capacity}
    entries, LRU eviction. Width handling exploits that
    [Design.time_table] is a running minimum over chain counts, making
    a narrower front a strict prefix of a wider one: the cache stores
    the widest front computed per core and serves narrower requests
    from its prefix, so sweeping widths downward never recomputes.

    Returned arrays must be treated as immutable — hits alias the
    cached array (and each other). [Time_table] stores them as its
    rows and only reads; so must every other caller.

    The rectangle-packing line of work (arXiv 1008.3320) draws each
    core's candidate rectangles from exactly this front, so the cache
    is shared infrastructure, not a solver-local optimization. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val time_table :
  ?stats:Soctam_obs.Obs.t ->
  Soctam_model.Core_data.t ->
  max_width:int ->
  int array
(** Memoized [Design.time_table]. Byte-identical to the uncached
    computation at every width (tested); do not mutate the result.
    [stats] bumps [wrapper/front_hits] / [wrapper/front_misses].
    @raise Invalid_argument when [max_width < 1]. *)

val set_capacity : int -> unit
(** Maximum cached cores (default 256; generous for every published
    ITC'02 SOC). Shrinking evicts immediately; [0] disables caching —
    every call computes fresh. @raise Invalid_argument when negative. *)

val capacity : unit -> int
(** The current entry bound. *)

val reset : unit -> unit
(** Empty the cache and zero the counters (capacity is kept). Tests
    use this to isolate hit-rate assertions. *)

val stats : unit -> stats
(** Lifetime counters since the last {!reset}, plus the live entry
    count. *)
