(** The Typedtree pass: interprocedural effect inference powering
    DOM-ESCAPE / LOCK-RAISE / ALLOC-HOT and the contract families
    EFFECT-WORKER / OUTCOME-DROP / ENGINE-CAPS / TAU-DISCIPLINE over the
    [.cmt] files dune writes during the build.

    Where the Parsetree rules in {!Analyze} see one file of syntax at a
    time, this pass sees resolved identifier paths ([Path.t]) and whole-
    repository structure: it builds a module-qualified call graph, marks
    every function transitively callable from a [Pool.map_chunks] /
    [Team.round] / [Domain.spawn] worker closure as
    domain-reachable, infers a conservative {!Effect.t} signature for
    every node (a Kleene fixpoint over the call edges), and then checks
    mutation, lock, allocation, outcome, caps and tau discipline against
    that information. DESIGN.md §13 documents the exact approximations
    each rule family makes.

    The pass is best-effort by design: a source file with no readable
    [.cmt] (not yet compiled, stale build directory) contributes no
    typed findings but is reported with an [Info] diagnostic naming the
    missing rule families — {!Analyze.tree} keeps the syntactic rules as
    the fallback for those files. *)

(** {1 Call graph} *)

type graph
(** The module-qualified call graph of every analyzed compilation unit.
    Nodes are ["Module.fn"] (nested: ["Pool.map_chunks.run_chunk"]); the
    distinguished pseudo-node ["<workers>"] has an edge to every
    function a worker closure calls. *)

val nodes : graph -> (string * string list) list
(** [(node, callees)] rows, sorted by node name, callees sorted and
    deduplicated. *)

val reachable : graph -> string list
(** Functions transitively callable from ["<workers>"], sorted. *)

val effects : graph -> (string * Effect.t) list
(** The solved (post-fixpoint) effect signature of every node, in node
    order. *)

val graph_json : graph -> Soctam_util.Json.t
(** Strict-JSON rendering for [soctam analyze --call-graph]:
    [{"nodes": {"Module.fn": {"calls": ["callee", ...],
      "effect": ["may-raise", ...]}, ...},
      "domain_reachable": ["Module.fn", ...]}]. The ["effect"] member is
    {!Effect.names} of the solved signature (empty array = pure).
    Deterministic member order; schema documented in DESIGN.md §13. *)

(** {1 Running the pass} *)

type t = {
  findings : Finding.t list;  (** surviving typed findings, sorted *)
  suppressed : int;  (** silenced by scoped [\[@soctam.allow\]] *)
  problems : Soctam_check.Violation.t list;
      (** unreadable or version-mismatched [.cmt] files, plus one [Info]
          per source with no matching [.cmt] at all *)
  typed_files : int;  (** sources that had a matching [.cmt] *)
  graph : graph;
  effect_seconds : float;
      (** wall-clock cost of the effect fixpoint plus the four families
          it powers (EFFECT-WORKER, OUTCOME-DROP, ENGINE-CAPS,
          TAU-DISCIPLINE); recorded in BENCH_parallel.json *)
}

val run : root:string -> sources:string list -> t
(** Analyze every [.cmt] under [root] (see {!Source.cmt_files}) whose
    recorded source file matches one of [sources] (root-relative paths
    from {!Source.discover}). Findings are reported against those
    root-relative paths, so they compose with the baseline and the
    suppression machinery exactly like syntactic findings. *)
