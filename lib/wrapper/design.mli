(** Test wrapper design for a single core (problem P_W).

    Given a core and a TAM of width [w], [Design_wrapper] builds at most
    [w] wrapper scan chains. Each wrapper chain concatenates internal scan
    chains (contributing to both scan-in and scan-out length) with wrapper
    input cells (scan-in only), output cells (scan-out only) and
    bidirectional cells (both). The core's testing time is

    {[ T = (1 + max(si, so)) * p + min(si, so) ]}

    where [si]/[so] are the longest wrapper scan-in/scan-out chains and
    [p] the pattern count (Iyengar et al., JETTA 2002).

    The algorithm has two priorities: (i) minimize [T]; (ii) minimize the
    number of wrapper chains actually used (the TAM wires the core
    consumes). Internal chains are packed by LPT balancing, I/O cells are
    spread greedily, and every admissible chain count [n <= w] is
    considered, keeping the design with the smallest [(T, used width)]. *)

type chain_layout = {
  internal_chains : int list;
      (** indices into the core's [scan_chains], in stitch order *)
  input_cells : int;
  output_cells : int;
  bidir_cells : int;
}
(** What one wrapper scan chain is made of. *)

type t = {
  requested_width : int;  (** TAM width the design was asked for *)
  used_width : int;  (** wrapper chains actually non-empty *)
  scan_in : int array;  (** per-chain scan-in length *)
  scan_out : int array;  (** per-chain scan-out length *)
  scan_in_max : int;
  scan_out_max : int;
  time : int;  (** core testing time in clock cycles *)
  layout : chain_layout array;  (** composition of every wrapper chain *)
}

val validate_layout : Soctam_model.Core_data.t -> t -> (unit, string) result
(** Check that the layout is a complete, disjoint placement of the core's
    internal chains and cells and that the per-chain lengths follow from
    it. All designs produced by this module satisfy it (property-tested);
    exposed for downstream tools that edit layouts. *)

val test_time : patterns:int -> scan_in:int -> scan_out:int -> int
(** The testing-time formula above. *)

val with_chain_count : Soctam_model.Core_data.t -> chains:int -> t
(** Wrapper design using exactly [chains] wrapper scan chains (some may
    end up empty for degenerate cores). Building block for {!design} and
    the reference the certifier checks layouts against; exposed for
    tests and ablations. Internal chains are LPT-packed, then each cell
    goes to the shortest chain, lowest index first, through a min-heap:
    O(k * min(chains, k) + chains + cells * log chains) for [k] internal
    chains. @raise Invalid_argument when [chains < 1]. *)

val design : Soctam_model.Core_data.t -> width:int -> t
(** Best design over all chain counts [1 .. width]. Chain counts past
    [k + bidirs + max inputs outputs] (every internal chain and cell on a
    wrapper chain of its own) leave the extra chains empty, so the loop
    stops there: at most that many {!with_chain_count} builds.
    @raise Invalid_argument when [width < 1]. *)

val time_table : Soctam_model.Core_data.t -> max_width:int -> int array
(** [time_table core ~max_width] gives the core's testing time at every
    width: element [w - 1] is [(design core ~width:w).time]. Builds no
    layout: the time for [n] chains has a closed form in the LPT
    makespan of the internal chains over [min n k] chains, so one call
    costs O(max_width + k^2 log k) and allocates nothing per width. Use
    this rather than repeated {!design} calls when sweeping widths. *)

val max_useful_width : Soctam_model.Core_data.t -> int
(** Smallest width beyond which the testing time stops decreasing. It
    is at most [k + bidirs + max inputs outputs], where every internal
    chain and cell has a wrapper chain of its own. The paper's p31108
    lower-bound saturation comes from its bottleneck core reaching this
    width. *)

val pareto_widths :
  Soctam_model.Core_data.t -> max_width:int -> (int * int) list
(** Widths at which the testing time strictly improves, as
    [(width, time)] pairs in increasing width order. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)

val pp_layout : Format.formatter -> t -> unit
(** Multi-line rendering of every wrapper chain's composition: internal
    chain indices and cell counts, with the per-chain scan-in/out
    lengths. *)
