module Obs = Soctam_obs.Obs
module Timer = Soctam_util.Timer

type t = {
  cfg : Run_config.t;
  deadline : float option;
  mutable slices : int;
}

let start (cfg : Run_config.t) =
  {
    cfg;
    deadline =
      Option.map (fun budget -> Timer.now_s () +. budget)
        cfg.Run_config.time_budget;
    slices = 0;
  }

let out_of_time t =
  match t.deadline with None -> false | Some d -> Timer.now_s () > d

let remaining t =
  Option.map (fun d -> Float.max 0. (d -. Timer.now_s ())) t.deadline

let slice_done t = t.slices <- t.slices + 1

let save t cp =
  match t.cfg.Run_config.checkpoint_path with
  | None -> ()
  | Some path -> (
      match Checkpoint.save path cp with
      | Ok () -> ()
      | Error msg -> failwith ("checkpoint write failed: " ^ msg))

exception Stopped of Outcome.t

let stop outcome = raise (Stopped outcome)

let boundary t checkpoint =
  let stop_with make =
    let cp = checkpoint () in
    save t cp;
    stop (make cp)
  in
  (match t.cfg.Run_config.slice_limit with
  | Some limit when t.slices >= limit ->
      stop_with (fun cp -> Outcome.Budget_exhausted cp)
  | Some _ | None -> ());
  if t.cfg.Run_config.cancel () then
    stop_with (fun cp -> Outcome.Interrupted cp);
  if out_of_time t then stop_with (fun cp -> Outcome.Budget_exhausted cp);
  if Option.is_some t.cfg.Run_config.checkpoint_path then
    save t (checkpoint ())

let run t body =
  match body () with
  | () ->
      (match t.cfg.Run_config.checkpoint_path with
      | Some path when Sys.file_exists path -> (
          try Sys.remove path with Sys_error _ -> ())
      | Some _ | None -> ());
      Outcome.Complete
  | exception Stopped outcome -> outcome

let replay t =
  let stats = t.cfg.Run_config.stats in
  match t.cfg.Run_config.resume with
  | Some cp when Obs.enabled stats && t.cfg.Run_config.resume_replay ->
      List.iter
        (fun (name, n) -> if n > 0 then Obs.add stats ~n name)
        cp.Checkpoint.counters
  | Some _ | None -> ()

let resumed t name =
  match t.cfg.Run_config.resume with
  | None -> 0
  | Some cp -> (
      match List.assoc_opt name cp.Checkpoint.counters with
      | Some n -> n
      | None -> 0)
