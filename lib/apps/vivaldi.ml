module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng

type config = {
  dimensions : int;
  ce : float;
  cc : float;
  period : float;
  probes_per_round : int;
  rpc_timeout : float;
}

let default_config =
  { dimensions = 3; ce = 0.25; cc = 0.25; period = 5.0; probes_per_round = 2; rpc_timeout = 10.0 }

type node = {
  cfg : config;
  env : Env.t;
  coord : float array;
  mutable err : float; (* local confidence error, starts pessimistic *)
  mutable n_samples : int;
  peers : unit -> Addr.t list;
  v_rng : Rng.t;
}

let addr t = t.env.Env.me
let coordinate t = Array.copy t.coord
let confidence_error t = t.err
let samples t = t.n_samples

let distance a b =
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt !acc

(* A probe's answer: the callee's coordinate and confidence error, as
   [{"coord": [x, ...], "err": e}]. *)
let sample_to_value (coord, err) =
  let coord = Codec.List (Array.to_list (Array.map (fun x -> Codec.Float x) coord)) in
  Codec.Assoc [ ("coord", coord); ("err", Codec.Float err) ]

let sample_of_value v =
  ( Array.of_list (List.map Codec.to_float (Codec.to_list (Codec.member "coord" v))),
    Codec.to_float (Codec.member "err" v) )

let p_probe =
  Rpc.proc "viv.probe" Rpc.no_args
    {
      Codec.size = (fun r -> Codec.encoded_size (sample_to_value r));
      to_value = sample_to_value;
      of_value = sample_of_value;
    }

(* One Vivaldi update: pull/push our coordinate along the unit vector to
   the remote, proportionally to the prediction error and our relative
   confidence. *)
let update t ~remote_coord ~remote_err ~rtt =
  if rtt > 0.0 && remote_err >= 0.0 then begin
    let w = t.err /. Float.max 1e-9 (t.err +. remote_err) in
    let predicted = distance t.coord remote_coord in
    let sample_err = Float.abs (predicted -. rtt) /. rtt in
    t.err <- Float.min 2.0 ((sample_err *. t.cfg.cc *. w) +. (t.err *. (1.0 -. (t.cfg.cc *. w))));
    let delta = t.cfg.ce *. w in
    (* direction away from the remote (or a random kick when colocated) *)
    let dir = Array.make t.cfg.dimensions 0.0 in
    let norm = ref 0.0 in
    Array.iteri
      (fun i x ->
        dir.(i) <- x -. remote_coord.(i);
        norm := !norm +. (dir.(i) *. dir.(i)))
      t.coord;
    let norm = sqrt !norm in
    if norm < 1e-9 then
      Array.iteri (fun i _ -> dir.(i) <- Rng.float t.v_rng 1.0 -. 0.5) dir
    else Array.iteri (fun i x -> dir.(i) <- x /. norm) dir;
    let force = rtt -. predicted in
    Array.iteri (fun i x -> t.coord.(i) <- x +. (delta *. force *. dir.(i))) t.coord;
    t.n_samples <- t.n_samples + 1
  end

let probe_once t peer =
  let eng = Env.engine t.env in
  let t0 = Engine.now eng in
  match Rpc.invoke t.env peer ~timeout:t.cfg.rpc_timeout p_probe () with
  | Error e -> Error (Rpc.error_to_string e)
  | Ok (remote_coord, remote_err) ->
      let rtt = Engine.now eng -. t0 in
      if Array.length remote_coord = t.cfg.dimensions then
        update t ~remote_coord ~remote_err ~rtt;
      Ok rtt

let probe_round t =
  let candidates = List.filter (fun a -> not (Addr.equal a t.env.Env.me)) (t.peers ()) in
  if candidates <> [] then
    for _ = 1 to t.cfg.probes_per_round do
      ignore (probe_once t (Rng.pick_list t.v_rng candidates))
    done

let create ?(config = default_config) ~peers env =
  let t =
    {
      cfg = config;
      env;
      coord = Array.make config.dimensions 0.0;
      err = 1.0;
      n_samples = 0;
      peers;
      v_rng = Rng.split env.Env.env_rng;
    }
  in
  (* the answer is a snapshot: the coordinate moves on after it is sent *)
  Rpc.handle env p_probe (fun () -> (Array.copy t.coord, t.err));
  ignore (Env.periodic env config.period (fun () -> probe_round t));
  t

let app ?(config = default_config) ~register env =
  let t = create ~config ~peers:(fun () -> env.Env.nodes) env in
  register t
