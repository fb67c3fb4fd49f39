module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Crypto = Splay_runtime.Crypto
module Rng = Splay_sim.Rng

type t = {
  p : Pastry.node;
  env : Env.t;
  subs : (int, unit) Hashtbl.t;
  childs : (int, Node.t list ref) Hashtbl.t;
  seen : (string, unit) Hashtbl.t; (* event ids, for duplicate suppression *)
  mutable delivered_log : (int * string) list;
  mutable deliver_cbs : (topic:int -> payload:string -> unit) list;
  s_rng : Rng.t;
  rpc_timeout : float;
}

let delivered t = t.delivered_log
let is_subscribed t ~topic = Hashtbl.mem t.subs topic
let is_forwarder t ~topic = Hashtbl.mem t.childs topic

let children t ~topic =
  match Hashtbl.find_opt t.childs topic with Some l -> !l | None -> []

let topic_of_name t name = Crypto.hash_to_id name ~bits:(Pastry.config_of t.p).Pastry.bits

let on_deliver t f = t.deliver_cbs <- f :: t.deliver_cbs

let self t = Pastry.self_node t.p

let add_child t ~topic child =
  let l =
    match Hashtbl.find_opt t.childs topic with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.childs topic l;
        l
  in
  if not (List.exists (Node.equal child) !l) then l := child :: !l

let remove_child t ~topic child =
  match Hashtbl.find_opt t.childs topic with
  | Some l -> l := List.filter (fun c -> not (Node.equal c child)) !l
  | None -> ()

let p_join = Rpc.proc "scribe.join" (Rpc.args2 Codec.int Node.ty) Codec.unit

(* An event: its topic, its id and its payload. *)
let event = Rpc.args3 Codec.int Codec.string Codec.string
let p_deliver = Rpc.proc "scribe.deliver" event Codec.unit
let p_publish = Rpc.proc "scribe.publish" event Codec.unit

(* Graft ourselves towards the rendezvous: each hop records us as a child;
   a hop that is already in the tree stops the propagation (that is what
   keeps join traffic local in Scribe). *)
let graft t ~topic =
  let rec go attempts =
    if attempts > 0 then
      match Pastry.next_hop t.p topic with
      | None -> () (* we are the rendezvous *)
      | Some parent -> (
          match Rpc.invoke t.env parent.Node.addr ~timeout:t.rpc_timeout p_join (topic, self t) with
          | Ok _ -> ()
          | Error _ ->
              (* feed Pastry's suspicion so the next attempt routes around *)
              Pastry.report_failure t.p parent;
              go (attempts - 1))
  in
  go 4

let handle_join t (topic, child) =
  let was_in_tree = is_forwarder t ~topic || is_subscribed t ~topic in
  add_child t ~topic child;
  if not was_in_tree then graft t ~topic

let deliver_local t ~topic ~payload =
  if is_subscribed t ~topic then begin
    t.delivered_log <- (topic, payload) :: t.delivered_log;
    List.iter (fun f -> f ~topic ~payload) (List.rev t.deliver_cbs)
  end

(* Flow an event down the topic tree. *)
let disseminate t ~topic ~eid ~payload =
  if not (Hashtbl.mem t.seen eid) then begin
    Hashtbl.replace t.seen eid ();
    deliver_local t ~topic ~payload;
    List.iter
      (fun child ->
        ignore
          (Env.thread t.env (fun () ->
               match
                 Rpc.invoke t.env child.Node.addr ~timeout:t.rpc_timeout p_deliver
                   (topic, eid, payload)
               with
               | Ok _ -> ()
               | Error _ -> remove_child t ~topic child)))
      (children t ~topic)
  end

let handle_event t (topic, eid, payload) = disseminate t ~topic ~eid ~payload

let subscribe t ~topic =
  if not (is_subscribed t ~topic) then begin
    Hashtbl.replace t.subs topic ();
    if not (is_forwarder t ~topic) then graft t ~topic
  end

let publish t ~topic ~payload =
  let eid = Printf.sprintf "%d-%d" topic (Rng.int t.s_rng max_int) in
  match Pastry.lookup t.p topic with
  | None -> () (* routing broke down; the publication is lost, as live *)
  | Some (owner, _) ->
      if Node.equal owner (self t) then disseminate t ~topic ~eid ~payload
      else
        ignore
          (Rpc.invoke t.env owner.Node.addr ~timeout:t.rpc_timeout p_publish (topic, eid, payload))

let create p =
  let env = Pastry.node_env p in
  let t =
    {
      p;
      env;
      subs = Hashtbl.create 8;
      childs = Hashtbl.create 8;
      seen = Hashtbl.create 64;
      delivered_log = [];
      deliver_cbs = [];
      s_rng = Rng.split env.Env.env_rng;
      rpc_timeout = (Pastry.config_of p).Pastry.rpc_timeout;
    }
  in
  Rpc.handle env p_join (handle_join t);
  Rpc.handle env p_deliver (handle_event t);
  (* the rendezvous fans a publication out as it would a delivery *)
  Rpc.handle env p_publish (handle_event t);
  (* soft-state refresh: re-graft subscriptions so trees heal under churn *)
  ignore
    (Env.periodic env 30.0 (fun () ->
         Hashtbl.iter (fun topic () -> graft t ~topic) t.subs));
  t
