module Core_data = Soctam_model.Core_data

type chain_layout = {
  internal_chains : int list;
  input_cells : int;
  output_cells : int;
  bidir_cells : int;
}

type t = {
  requested_width : int;
  used_width : int;
  scan_in : int array;
  scan_out : int array;
  scan_in_max : int;
  scan_out_max : int;
  time : int;
  layout : chain_layout array;
}

let test_time ~patterns ~scan_in ~scan_out =
  ((1 + Int.max scan_in scan_out) * patterns) + Int.min scan_in scan_out

(* Binary min-heap of chain indices keyed by [(len.(j), j)] in
   [heap.(0 .. size - 1)]: its top is the shortest chain, lowest index
   first — exactly the chain [Select.min_index_by] picks — so each
   placement costs O(log chains) instead of a full scan. *)
let heap_less (len : int array) a b =
  len.(a) < len.(b) || (len.(a) = len.(b) && a < b)
[@@soctam.hot]

let rec heap_down len (heap : int array) size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c = if r < size && heap_less len heap.(r) heap.(l) then r else l in
    if heap_less len heap.(c) heap.(i) then begin
      let top = heap.(i) in
      heap.(i) <- heap.(c);
      heap.(c) <- top;
      heap_down len heap size c
    end
  end
[@@soctam.hot]

let heap_of len =
  let size = Array.length len in
  let heap = Array.init size Fun.id in
  for i = (size / 2) - 1 downto 0 do
    heap_down len heap size i
  done;
  heap

(* Add [count] cells one at a time, each to the chain at the top of
   [heap] (the shortest under [len]), counting them in [cells]. *)
let place_cells len heap ~count ~cells =
  for _ = 1 to count do
    let j = heap.(0) in
    len.(j) <- len.(j) + 1;
    cells.(j) <- cells.(j) + 1;
    heap_down len heap (Array.length heap) 0
  done

let with_chain_count (core : Core_data.t) ~chains =
  if chains < 1 then invalid_arg "Design.with_chain_count: chains must be >= 1";
  let scan_groups = min chains (Core_data.scan_chain_count core) in
  let scan_in = Array.make chains 0 in
  let scan_out = Array.make chains 0 in
  let internal = Array.make chains [] in
  let input_cells = Array.make chains 0 in
  let output_cells = Array.make chains 0 in
  let bidir_cells = Array.make chains 0 in
  (* Internal scan chains: LPT-balance over the scan-bearing chains. *)
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
  (* Bidirectional cells lengthen both sides of a chain, placed where
     the larger resulting side is shortest, ties to the shorter scan-in.
     Scan-in and scan-out are equal on every chain until the bidirs are
     placed, so that rule is simply "shortest scan-in": the same heap
     then serves the input cells (scan-in only). Output cells lengthen
     scan-out only and get a heap of their own. *)
  let heap = heap_of scan_in in
  place_cells scan_in heap ~count:core.Core_data.bidirs ~cells:bidir_cells;
  Array.iteri (fun j b -> scan_out.(j) <- scan_out.(j) + b) bidir_cells;
  place_cells scan_in heap ~count:core.Core_data.inputs ~cells:input_cells;
  place_cells scan_out (heap_of scan_out) ~count:core.Core_data.outputs
    ~cells:output_cells;
  let used = ref 0 in
  for j = 0 to chains - 1 do
    if scan_in.(j) + scan_out.(j) > 0 then incr used
  done;
  let scan_in_max = Soctam_util.Intutil.max_element scan_in in
  let scan_out_max = Soctam_util.Intutil.max_element scan_out in
  {
    requested_width = chains;
    used_width = !used;
    scan_in;
    scan_out;
    scan_in_max;
    scan_out_max;
    time =
      test_time ~patterns:core.Core_data.patterns ~scan_in:scan_in_max
        ~scan_out:scan_out_max;
    layout =
      Array.init chains (fun j ->
          {
            internal_chains = List.rev internal.(j);
            input_cells = input_cells.(j);
            output_cells = output_cells.(j);
            bidir_cells = bidir_cells.(j);
          });
  }

let validate_layout (core : Core_data.t) design =
  let chains = Array.length design.layout in
  if
    Array.length design.scan_in <> chains
    || Array.length design.scan_out <> chains
  then Error "layout and length arrays disagree on the chain count"
  else begin
    let seen = Array.make (Core_data.scan_chain_count core) false in
    let problem = ref None in
    Array.iteri
      (fun j part ->
        if !problem = None then begin
          let ffs = ref 0 in
          List.iter
            (fun chain ->
              if chain < 0 || chain >= Array.length seen then
                problem := Some "layout names a non-existent internal chain"
              else if seen.(chain) then
                problem := Some "internal chain placed twice"
              else begin
                seen.(chain) <- true;
                ffs := !ffs + core.Core_data.scan_chains.(chain)
              end)
            part.internal_chains;
          if !problem = None then begin
            if part.input_cells < 0 || part.output_cells < 0
               || part.bidir_cells < 0
            then problem := Some "negative cell count"
            else if
              design.scan_in.(j)
              <> !ffs + part.input_cells + part.bidir_cells
            then problem := Some "scan-in length does not match the layout"
            else if
              design.scan_out.(j)
              <> !ffs + part.output_cells + part.bidir_cells
            then problem := Some "scan-out length does not match the layout"
          end
        end)
      design.layout;
    match !problem with
    | Some msg -> Error msg
    | None ->
        if not (Array.for_all (fun b -> b) seen) then
          Error "some internal chain never placed"
        else begin
          let total f =
            Array.fold_left (fun acc p -> acc + f p) 0 design.layout
          in
          if total (fun p -> p.input_cells) <> core.Core_data.inputs then
            Error "input cells lost or invented"
          else if total (fun p -> p.output_cells) <> core.Core_data.outputs
          then Error "output cells lost or invented"
          else if total (fun p -> p.bidir_cells) <> core.Core_data.bidirs then
            Error "bidir cells lost or invented"
          else Ok ()
        end
  end

let better a b =
  a.time < b.time || (a.time = b.time && a.used_width < b.used_width)

(* With this many chains every internal chain and every cell can have a
   wrapper chain of its own; each chain past it stays empty, so neither
   the time nor the used width can improve beyond it. *)
let natural_width (core : Core_data.t) =
  max 1
    (Core_data.scan_chain_count core + core.Core_data.bidirs
    + max core.Core_data.inputs core.Core_data.outputs)

let design core ~width =
  if width < 1 then invalid_arg "Design.design: width must be >= 1";
  let best = ref (with_chain_count core ~chains:1) in
  for n = 2 to min width (natural_width core) do
    let cand = with_chain_count core ~chains:n in
    if better cand !best then best := cand
  done;
  { !best with requested_width = width }

(* -- time-only kernel ------------------------------------------------------

   [time_table] needs only [with_chain_count]'s time, which has a closed
   form. The scan-in lengths start as the LPT loads of the internal
   chains over [min n k] chains, with makespan [M_n]; bidirs and then
   inputs add one unit at a time to the shortest chain. Unit-filling the
   current minimum ends at [max M_n (ceil ((S + c) / n))] for [S]
   flip-flops and [c] units: while no chain exceeds [M_n] the bound is
   [M_n], and once one does every chain sits at [M_n] and the fill stays
   level. Scan-out is the same with outputs for inputs. *)

let rec max_prefix (a : int array) n i acc =
  if i >= n then acc else max_prefix a n (i + 1) (Int.max acc a.(i))
[@@soctam.hot]

(* [Makespan.lpt]'s makespan for [sorted] (longest first) over
   [machines] machines, in the caller's [loads] and [heap] scratch. *)
let lpt_makespan (sorted : int array) ~machines loads heap =
  for m = 0 to machines - 1 do
    loads.(m) <- 0;
    heap.(m) <- m
  done;
  for j = 0 to Array.length sorted - 1 do
    let m = heap.(0) in
    loads.(m) <- loads.(m) + sorted.(j);
    heap_down loads heap machines 0
  done;
  max_prefix loads machines 0 0
[@@soctam.hot]

(* Longest of [n] chains after unit-filling [units] cells (flip-flops
   included) onto the shortest, from internal-chain makespan [makespan]. *)
let filled_max ~makespan ~units n = Int.max makespan ((units + n - 1) / n)
[@@soctam.hot]

(* [with_chain_count core ~chains:n].time for the core summarised by
   its pattern count, internal-chain makespan over [min n k] chains,
   flip-flop count and cell counts. *)
let chain_count_time ~patterns ~makespan ~ffs ~bidirs ~inputs ~outputs n =
  let si = filled_max ~makespan ~units:(ffs + bidirs + inputs) n in
  let so = filled_max ~makespan ~units:(ffs + bidirs + outputs) n in
  test_time ~patterns ~scan_in:si ~scan_out:so
[@@soctam.hot]

let time_table (core : Core_data.t) ~max_width =
  if max_width < 1 then invalid_arg "Design.time_table: max_width must be >= 1";
  let sorted = Array.copy core.Core_data.scan_chains in
  Array.sort (fun a b -> Int.compare b a) sorted;
  let k = Array.length sorted in
  let loads = Array.make k 0 and heap = Array.make k 0 in
  let ffs = Soctam_util.Intutil.sum sorted in
  let longest = if k = 0 then 0 else sorted.(0) in
  let times = Array.make max_width 0 in
  let best = ref max_int in
  for n = 1 to max_width do
    let makespan =
      if n >= k then longest else lpt_makespan sorted ~machines:n loads heap
    in
    let t =
      chain_count_time ~patterns:core.Core_data.patterns ~makespan ~ffs
        ~bidirs:core.Core_data.bidirs ~inputs:core.Core_data.inputs
        ~outputs:core.Core_data.outputs n
    in
    best := Int.min !best t;
    times.(n - 1) <- !best
  done;
  times

let max_useful_width core =
  (* The time is flat from [natural_width] on, so the scan below it is
     exhaustive. *)
  let limit = natural_width core in
  let times = time_table core ~max_width:limit in
  let rec first_stable w =
    if w <= 1 then 1
    else if times.(w - 2) > times.(w - 1) then w
    else first_stable (w - 1)
  in
  first_stable limit

let pareto_widths core ~max_width =
  let times = time_table core ~max_width in
  let rec collect w prev acc =
    if w > max_width then List.rev acc
    else begin
      let t = times.(w - 1) in
      if t < prev then collect (w + 1) t ((w, t) :: acc)
      else collect (w + 1) prev acc
    end
  in
  collect 1 max_int []

let pp ppf t =
  Format.fprintf ppf
    "@[<h>wrapper: width %d (used %d), si_max %d, so_max %d, time %d@]"
    t.requested_width t.used_width t.scan_in_max t.scan_out_max t.time

let pp_layout ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun j part ->
      let internal =
        match part.internal_chains with
        | [] -> "no internal chains"
        | chains ->
            Printf.sprintf "internal %s"
              (String.concat ","
                 (List.map (fun c -> string_of_int (c + 1)) chains))
      in
      Format.fprintf ppf
        "chain %2d: %s + %d in + %d out + %d bidir  (si %d, so %d)@," (j + 1)
        internal part.input_cells part.output_cells part.bidir_cells
        t.scan_in.(j) t.scan_out.(j))
    t.layout;
  Format.fprintf ppf "@]"
