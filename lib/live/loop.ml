module Engine = Splay_sim.Engine

(* The live backend's answer to the ISSUE's "I/O backend seam": rather
   than reimplementing Sleep/Suspend over OS primitives, the unmodified
   effect-handler engine is *driven by wall time*. Each iteration advances
   the virtual clock to the wall-clock elapsed-since-epoch (firing every
   due event — timers, RPC timeouts, periodic processes), then parks in
   [Unix.select] until either the next virtual event falls due or a
   watched socket becomes ready. Virtual time therefore tracks real time
   to select's granularity, and every blocking-looking operation the
   application uses ([sleep], [await], RPCs) acquires real-time
   semantics with zero changes to application or engine code.

   The network side of the seam reuses [Net.set_remote]: an in-process
   zero-latency testbed delivers local traffic, and any send whose
   destination host is not this process is routed out through a real TCP
   connection (see [Splayd]); inbound frames re-enter via
   [Net.deliver_remote], the receiver half a local send runs too. The
   testbed is synthetic for its zero-latency model and because a live
   host has no simulated host model, not for the hook, which works on
   any testbed. *)

type watch = {
  w_fd : Unix.file_descr;
  mutable w_want_write : bool;
  w_on_read : unit -> unit;
  w_on_write : unit -> unit;
  mutable w_dead : bool;
}

type t = {
  eng : Engine.t;
  net : Net.t;
  epoch : float;
  mutable watches : watch list;
}

let create ?(seed = 42) ?(hosts = 64) ?epoch () =
  let eng = Engine.create ~seed () in
  (* Zero-latency, infinite-bandwidth in-process testbed: local delivery
     costs no virtual time, so real sockets and real clocks are the only
     sources of delay a live run observes. *)
  let latency = Latency.synthetic ~dist:(Latency.Constant 0.0) ~intra_host:0.0 ~seed:0 () in
  let tb =
    Testbed.synthetic ~latency ~bw:infinity ~proc_cost:0.0 ~hosts (Engine.rng eng)
  in
  let net = Net.create eng tb in
  let epoch = match epoch with Some e -> e | None -> Unix.gettimeofday () in
  { eng; net; epoch; watches = [] }

let engine t = t.eng
let net t = t.net
let elapsed t = Unix.gettimeofday () -. t.epoch

let watch t fd ~on_read ~on_write =
  let w = { w_fd = fd; w_want_write = false; w_on_read = on_read; w_on_write = on_write; w_dead = false } in
  t.watches <- w :: t.watches;
  w

let unwatch t w =
  w.w_dead <- true;
  t.watches <- List.filter (fun x -> not (x == w)) t.watches

let want_write w yes = w.w_want_write <- yes

(* Advance virtual time to wall elapsed, firing everything due. The clock
   never moves backwards even if gettimeofday steps. *)
let catch_up t =
  let target = Float.max (Engine.now t.eng) (elapsed t) in
  ignore (Engine.run ~until:target t.eng)

let run ?deadline ?(max_idle = 0.05) t ~until =
  let rec go () =
    if until () then `Done
    else
      match deadline with
      | Some d when Unix.gettimeofday () >= d -> `Deadline
      | _ ->
          catch_up t;
          if until () then `Done
          else begin
            let next = Engine.next_at t.eng in
            let now = elapsed t in
            let timeout =
              if next = infinity then max_idle
              else Float.max 0.0 (Float.min max_idle (next -. now))
            in
            let timeout =
              match deadline with
              | Some d -> Float.max 0.0 (Float.min timeout (d -. Unix.gettimeofday ()))
              | None -> timeout
            in
            let ws = t.watches in
            let rds = List.map (fun w -> w.w_fd) ws in
            let wrs = List.filter_map (fun w -> if w.w_want_write then Some w.w_fd else None) ws in
            (match Unix.select rds wrs [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | r, w, _ ->
                (* A callback may unwatch (and close) other fds: consult
                   the per-watch dead flag, not just the snapshot. *)
                List.iter
                  (fun fd ->
                    match List.find_opt (fun x -> x.w_fd = fd && not x.w_dead) ws with
                    | Some x -> x.w_on_read ()
                    | None -> ())
                  r;
                List.iter
                  (fun fd ->
                    match List.find_opt (fun x -> x.w_fd = fd && not x.w_dead) ws with
                    | Some x when x.w_want_write -> x.w_on_write ()
                    | _ -> ())
                  w);
            go ()
          end
  in
  go ()
