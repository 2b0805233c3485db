module Tt = Soctam_core.Time_table
module Prng = Soctam_util.Prng
module Rc = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Checkpoint = Soctam_core.Checkpoint
module Lifecycle = Soctam_core.Lifecycle
module Obs = Soctam_obs.Obs

type params = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
  seed : int64;
}

let default_params =
  { iterations = 100_000; initial_temperature = 0.; cooling = 0.99995; seed = 1L }

type result = {
  widths : int array;
  assignment : int array;
  time : int;
  accepted : int;
  proposed : int;
  outcome : Outcome.t;
}

(* Mutable annealing state: widths and assignment as growable arrays
   capped at max_tams; energy recomputed in O(cores) per evaluation,
   cheap because times are table lookups. *)
type state = {
  mutable tams : int;
  widths : int array;  (* first [tams] entries meaningful *)
  assignment : int array;
}

let energy table st =
  let loads = Array.make st.tams 0 in
  Array.iteri
    (fun core tam ->
      loads.(tam) <-
        loads.(tam) + Tt.time table ~core ~width:st.widths.(tam))
    st.assignment;
  Soctam_util.Intutil.max_element loads

let copy_state ~max_tams st =
  {
    tams = st.tams;
    widths = Array.sub st.widths 0 max_tams;
    assignment = Array.copy st.assignment;
  }

let copy_into ~src ~dst =
  dst.tams <- src.tams;
  Array.blit src.widths 0 dst.widths 0 (Array.length src.widths);
  Array.blit src.assignment 0 dst.assignment 0 (Array.length src.assignment)

(* Moves return false when inapplicable (state unchanged). *)

let move_shift_wire rng st =
  if st.tams < 2 then false
  else begin
    let src = Prng.int rng st.tams in
    let dst = Prng.int rng st.tams in
    if src = dst || st.widths.(src) <= 1 then false
    else begin
      st.widths.(src) <- st.widths.(src) - 1;
      st.widths.(dst) <- st.widths.(dst) + 1;
      true
    end
  end

let move_reassign rng st =
  if st.tams < 2 then false
  else begin
    let core = Prng.int rng (Array.length st.assignment) in
    let tam = Prng.int rng st.tams in
    if st.assignment.(core) = tam then false
    else begin
      st.assignment.(core) <- tam;
      true
    end
  end

let move_split rng ~max_tams st =
  if st.tams >= max_tams then false
  else begin
    let tam = Prng.int rng st.tams in
    if st.widths.(tam) < 2 then false
    else begin
      let moved = 1 + Prng.int rng (st.widths.(tam) - 1) in
      st.widths.(st.tams) <- moved;
      st.widths.(tam) <- st.widths.(tam) - moved;
      (* Cores stay behind; later reassign moves populate the new TAM,
         but seed it with one random core to make splits useful. *)
      let core = Prng.int rng (Array.length st.assignment) in
      st.assignment.(core) <- st.tams;
      st.tams <- st.tams + 1;
      true
    end
  end

let move_merge rng st =
  if st.tams < 2 then false
  else begin
    let victim = Prng.int rng st.tams in
    let last = st.tams - 1 in
    let into = Prng.int rng (st.tams - 1) in
    (* Swap victim to the end, fold its wires and cores into [into]
       (indices taken in the post-swap numbering). *)
    let swap_w = st.widths.(victim) in
    st.widths.(victim) <- st.widths.(last);
    st.widths.(last) <- swap_w;
    Array.iteri
      (fun core tam ->
        if tam = victim then st.assignment.(core) <- last
        else if tam = last then st.assignment.(core) <- victim)
      st.assignment;
    st.widths.(into) <- st.widths.(into) + st.widths.(last);
    Array.iteri
      (fun core tam -> if tam = last then st.assignment.(core) <- into)
      st.assignment;
    st.tams <- st.tams - 1;
    true
  end

(* -- checkpointed run ------------------------------------------------------ *)

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let restore_an ~cfg ~(params : params) ~total_width ~max_tams ~cores
    (cp : Checkpoint.t) =
  let check cond msg = if not cond then invalid_arg msg in
  match cp.Checkpoint.state with
  | Checkpoint.Anneal s ->
      check
        (s.Checkpoint.an_total_width = total_width)
        "Annealer: resume checkpoint is for a different total width";
      check
        (s.Checkpoint.an_max_tams = max_tams
        && Array.length s.Checkpoint.an_widths = max_tams)
        "Annealer: resume checkpoint was taken under a different max_tams";
      check
        (Array.length s.Checkpoint.an_assignment = cores)
        "Annealer: resume checkpoint is for a different core count";
      check
        (s.Checkpoint.an_iterations = params.iterations
        && Int64.equal s.Checkpoint.an_seed params.seed
        && float_bits_equal s.Checkpoint.an_cooling params.cooling
        && float_bits_equal s.Checkpoint.an_initial_temperature
             params.initial_temperature)
        "Annealer: resume checkpoint was taken under a different annealing \
         schedule";
      check
        (s.Checkpoint.an_tams <= max_tams)
        "Annealer: resume checkpoint walker exceeds max_tams";
      (match (cp.Checkpoint.soc, cfg.Rc.soc_name) with
      | Some a, Some b ->
          check (String.equal a b)
            "Annealer: resume checkpoint is for a different SOC"
      | _ -> ());
      s
  | Checkpoint.Partition_evaluate _ | Checkpoint.Exhaustive _
  | Checkpoint.Sweep _ | Checkpoint.Pack _ | Checkpoint.Race _ ->
      invalid_arg "Annealer: resume checkpoint is for a different solver"

let run_with ?(params = default_params) (cfg : Rc.t) ~table ~total_width =
  if Tt.max_width table < total_width then
    invalid_arg "Annealer: table narrower than total width";
  (match cfg.Rc.tams with
  | Some _ ->
      invalid_arg
        "Annealer: the annealer walks TAM counts freely (P_NPAW only); unset \
         Run_config.tams"
  | None -> ());
  let max_tams = cfg.Rc.max_tams in
  if max_tams < 1 then invalid_arg "Annealer: max_tams must be >= 1";
  if params.iterations < 0 then
    invalid_arg "Annealer: iterations must be >= 0";
  let stats = cfg.Rc.stats in
  let cores = Tt.core_count table in
  let restored =
    Option.map
      (restore_an ~cfg ~params ~total_width ~max_tams ~cores)
      cfg.Rc.resume
  in
  let lc = Lifecycle.start cfg in
  Lifecycle.replay lc;
  let st =
    match restored with
    | Some s ->
        {
          tams = s.Checkpoint.an_tams;
          widths = Array.copy s.Checkpoint.an_widths;
          assignment = Array.copy s.Checkpoint.an_assignment;
        }
    | None ->
        {
          tams = 1;
          widths =
            Array.init max_tams (fun i -> if i = 0 then total_width else 0);
          assignment = Array.make cores 0;
        }
  in
  let rng =
    match restored with
    | Some s -> Prng.of_state s.Checkpoint.an_rng
    | None -> Prng.create params.seed
  in
  (* The walker's energy is a pure function of its state, so it is
     recomputed on resume instead of being checkpointed. *)
  let current = ref (energy table st) in
  let best_state, best =
    match restored with
    | Some { Checkpoint.an_best = Some b; _ } ->
        let widths = Array.make max_tams 0 in
        Array.blit b.Checkpoint.ba_widths 0 widths 0
          (Array.length b.Checkpoint.ba_widths);
        ( {
            tams = Array.length b.Checkpoint.ba_widths;
            widths;
            assignment = Array.copy b.Checkpoint.ba_assignment;
          },
          ref b.Checkpoint.ba_time )
    | Some { Checkpoint.an_best = None; _ } | None ->
        (copy_state ~max_tams st, ref !current)
  in
  let temperature =
    ref
      (match restored with
      | Some s -> s.Checkpoint.an_temperature
      | None ->
          if params.initial_temperature > 0. then params.initial_temperature
          else 0.1 *. float_of_int !current)
  in
  let accepted =
    ref (match restored with Some s -> s.Checkpoint.an_accepted | None -> 0)
  in
  let proposed =
    ref (match restored with Some s -> s.Checkpoint.an_proposed | None -> 0)
  in
  let next =
    ref
      (match restored with
      | Some s -> s.Checkpoint.an_next_iteration
      | None -> 0)
  in
  let flushed_accepted = ref !accepted in
  let flushed_proposed = ref !proposed in
  let flush () =
    if Obs.enabled stats then begin
      Obs.add stats ~n:(!proposed - !flushed_proposed) "anneal/proposed";
      Obs.add stats ~n:(!accepted - !flushed_accepted) "anneal/accepted"
    end;
    flushed_proposed := !proposed;
    flushed_accepted := !accepted
  in
  let checkpoint_now () =
    {
      Checkpoint.soc = cfg.Rc.soc_name;
      counters =
        List.filter
          (fun (_, n) -> n > 0)
          [ ("anneal/proposed", !proposed); ("anneal/accepted", !accepted) ];
      state =
        Checkpoint.Anneal
          {
            Checkpoint.an_total_width = total_width;
            an_max_tams = max_tams;
            an_iterations = params.iterations;
            an_next_iteration = !next;
            an_seed = params.seed;
            an_rng = Prng.state rng;
            an_temperature = !temperature;
            an_initial_temperature = params.initial_temperature;
            an_cooling = params.cooling;
            an_tams = st.tams;
            an_widths = Array.copy st.widths;
            an_assignment = Array.copy st.assignment;
            an_best =
              Some
                {
                  Checkpoint.ba_widths =
                    Array.sub best_state.widths 0 best_state.tams;
                  ba_time = !best;
                  ba_assignment = Array.copy best_state.assignment;
                };
            an_accepted = !accepted;
            an_proposed = !proposed;
          };
    }
  in
  let backup = copy_state ~max_tams st in
  let step () =
    copy_into ~src:st ~dst:backup;
    let changed =
      match Prng.int rng 10 with
      | 0 -> move_split rng ~max_tams st
      | 1 -> move_merge rng st
      | 2 | 3 | 4 -> move_shift_wire rng st
      | 5 | 6 | 7 | 8 | 9 -> move_reassign rng st
      | _ -> assert false
    in
    if changed then begin
      incr proposed;
      let next_e = energy table st in
      let delta = float_of_int (next_e - !current) in
      let accept =
        delta <= 0.
        || Prng.float rng 1.0 < exp (-.delta /. max 1e-9 !temperature)
      in
      if accept then begin
        incr accepted;
        current := next_e;
        if next_e < !best then begin
          best := next_e;
          copy_into ~src:st ~dst:best_state
        end
      end
      else copy_into ~src:backup ~dst:st
    end;
    temperature := !temperature *. params.cooling
  in
  let slice_len = Rc.slice_size cfg ~length:params.iterations in
  let outcome =
    Lifecycle.run lc (fun () ->
        while !next < params.iterations do
          Lifecycle.boundary lc checkpoint_now;
          let hi = min (!next + slice_len) params.iterations in
          for _ = !next + 1 to hi do
            step ()
          done;
          next := hi;
          Lifecycle.slice_done lc;
          flush ()
        done)
  in
  flush ();
  {
    widths = Array.sub best_state.widths 0 best_state.tams;
    assignment = Array.copy best_state.assignment;
    time = !best;
    accepted = !accepted;
    proposed = !proposed;
    outcome;
  }

(* -- engine adapter -------------------------------------------------------- *)

module E (P : sig
  val params : params
end) : Soctam_core.Engine.S = struct
  let name = "anneal"

  let caps =
    {
      Soctam_core.Engine.parallel = false;
      imports_tau = false;
      needs_fixed_tams = false;
      free_tams_only = true;
      proves = false;
    }

  let cert = { Soctam_core.Engine.cert_exact = true; cert_packing = false }

  let owns_token = function Checkpoint.Anneal _ -> true | _ -> false

  let run (cfg : Rc.t) (inst : Soctam_core.Engine.instance) =
    let r =
      run_with ~params:P.params cfg ~table:inst.Soctam_core.Engine.table
        ~total_width:inst.Soctam_core.Engine.total_width
    in
    {
      Soctam_core.Engine.r_widths = r.widths;
      r_time = r.time;
      r_assignment = r.assignment;
      r_outcome = r.outcome;
      r_notes =
        [
          Printf.sprintf "%d/%d moves accepted" r.accepted r.proposed;
        ];
    }
end

let engine ?(params = default_params) () : Soctam_core.Engine.t =
  (module E (struct
    let params = params
  end))
