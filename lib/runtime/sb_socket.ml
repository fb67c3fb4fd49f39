module Obs = Splay_obs.Obs

exception Network_error of string

let c_opened = Obs.counter "sock.opened"
let c_denied = Obs.counter "sock.send_denied"

let udp env ~port handler =
  let me = env.Env.me in
  let addr = if port = me.Addr.port then me else Addr.make me.Addr.host port in
  (try Sandbox.socket_opened env.Env.sandbox
   with Sandbox.Violation m -> raise (Network_error m));
  (try Net.bind env.Env.net addr handler
   with Invalid_argument m ->
     Sandbox.socket_closed env.Env.sandbox;
     raise (Network_error m));
  Env.register_port env addr;
  Obs.incr c_opened;
  addr

let send env ~dst ?(size = 256) payload =
  if Sandbox.blacklisted env.Env.sandbox dst.Addr.host then begin
    Obs.incr c_denied;
    raise (Network_error (Printf.sprintf "destination %s blacklisted" (Addr.to_string dst)))
  end;
  (try Sandbox.network_send env.Env.sandbox size
   with Sandbox.Violation m ->
     Obs.incr c_denied;
     raise (Network_error m));
  if env.Env.loss_rate > 0.0 then
    Net.send env.Env.net ~size ~loss:env.Env.loss_rate ~src:env.Env.me ~dst payload
  else Net.send env.Env.net ~size ~src:env.Env.me ~dst payload

