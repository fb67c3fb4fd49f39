module Wire = Splay_ctl.Wire

(* One framed, non-blocking TCP connection registered in a [Loop]. Reads
   feed the streaming Wire decoder and deliver complete messages to
   [on_msg]; writes queue and drain as the socket allows, with the
   loop's want-write flag toggled to match. A protocol error or a peer
   close tears the connection down exactly once, through [on_close]. *)

type t = {
  loop : Loop.t;
  fd : Unix.file_descr;
  dec : Wire.decoder;
  outq : Buffer.t;
  mutable opos : int; (* consumed prefix of [outq] *)
  mutable watch : Loop.watch option;
  mutable closed : bool;
  mutable on_msg : t -> Wire.msg -> unit;
  mutable on_close : t -> string -> unit;
}

let closed t = t.closed
let pending t = Buffer.length t.outq - t.opos

let close t reason =
  if not t.closed then begin
    t.closed <- true;
    (match t.watch with
    | Some w -> Loop.unwatch t.loop w
    | None -> ());
    t.watch <- None;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.on_close t reason
  end

let set_want_write t yes =
  match t.watch with Some w -> Loop.want_write w yes | None -> ()

let flush_some t =
  if (not t.closed) && pending t > 0 then begin
    let s = Buffer.contents t.outq in
    let len = String.length s - t.opos in
    match Unix.write_substring t.fd s t.opos len with
    | n ->
        t.opos <- t.opos + n;
        if t.opos >= String.length s then begin
          Buffer.clear t.outq;
          t.opos <- 0;
          set_want_write t false
        end
        else set_want_write t true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> set_want_write t true
    | exception Unix.Unix_error (e, _, _) -> close t (Unix.error_message e)
  end
  else set_want_write t false

let send t msg =
  if not t.closed then begin
    Buffer.add_string t.outq (Wire.frame_msg msg);
    flush_some t
  end

let read_buf = Bytes.create 65536

let attach ?dec loop fd ~on_msg ~on_close =
  Unix.set_nonblock fd;
  let t =
    {
      loop;
      fd;
      dec = (match dec with Some d -> d | None -> Wire.decoder ());
      outq = Buffer.create 4096;
      opos = 0;
      watch = None;
      closed = false;
      on_msg;
      on_close;
    }
  in
  let rec drain () =
    if not t.closed then
      match Wire.next_msg t.dec with
      | Some m ->
          t.on_msg t m;
          drain ()
      | None -> ()
      | exception Codec.Parse_error e -> close t ("protocol error: " ^ e)
  in
  let handle_read () =
    if not t.closed then
      match Unix.read fd read_buf 0 (Bytes.length read_buf) with
      | 0 -> close t "closed by peer"
      | n ->
          Wire.feed t.dec read_buf 0 n;
          drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> close t (Unix.error_message e)
  in
  t.watch <- Some (Loop.watch loop fd ~on_read:handle_read ~on_write:(fun () -> flush_some t));
  (* Messages may already be complete in a handed-over decoder (bytes read
     during a blocking handshake). *)
  drain ();
  t

(* Drain the out buffer synchronously — the shutdown path's last writes
   (trace chunks, Bye) must reach the controller before exit. *)
let flush_blocking ?(timeout = 5.0) t =
  let d = Unix.gettimeofday () +. timeout in
  while (not t.closed) && pending t > 0 && Unix.gettimeofday () < d do
    match Unix.select [] [ t.fd ] [] 0.1 with
    | _, [ _ ], _ -> flush_some t
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* An [App] frame's RPC message re-enters the loop's net, as a message
   from another partition does; one whose payload does not parse is
   dropped, like a corrupt packet. *)
let deliver loop ~src ~dst ~size payload =
  match Rpc.payload_of_value payload with
  | p ->
      Net.deliver_remote (Loop.net loop) ~size ~src ~dst ~up_wait:0.0 ~ctx:Splay_obs.Obs.null_ctx p
  | exception Codec.Parse_error _ -> ()
