(* GC pause time from the runtime's own event ring (runtime_events, which
   ships with the compiler).

   A pause is one minor collection or one major slice, timed by the
   runtime between its begin and end events, on any domain. The ring is
   read after the measured phase, so it must be large enough to hold a
   whole run: run.py sets OCAMLRUNPARAM=e=19 (512k words per domain,
   enough for the longest workload); [lost] counts events the ring
   overwrote anyway. *)

module Re = Runtime_events

type t = {
  mutable pause_s : float;
  mutable max_s : float;
  mutable lost : int;
  open_ : (int * Re.runtime_phase, Int64.t) Hashtbl.t;
}

let cursor = lazy (Re.start (); Re.create_cursor None)

let counted = function Re.EV_MINOR | Re.EV_MAJOR_SLICE -> true | _ -> false

let callbacks t =
  Re.Callbacks.create
    ~runtime_begin:(fun dom ts ph ->
      if counted ph then Hashtbl.replace t.open_ (dom, ph) (Re.Timestamp.to_int64 ts))
    ~runtime_end:(fun dom ts ph ->
      match Hashtbl.find_opt t.open_ (dom, ph) with
      | Some t0 when counted ph ->
          Hashtbl.remove t.open_ (dom, ph);
          let d = Int64.to_float (Int64.sub (Re.Timestamp.to_int64 ts) t0) *. 1e-9 in
          t.pause_s <- t.pause_s +. d;
          if d > t.max_s then t.max_s <- d
      | _ -> ())
    ~lost_events:(fun _ n -> t.lost <- t.lost + n)
    ()

(* Pauses recorded since the last [arm] or [collect]. *)
let collect () =
  let t = { pause_s = 0.0; max_s = 0.0; lost = 0; open_ = Hashtbl.create 4 } in
  ignore (Re.read_poll (Lazy.force cursor) (callbacks t) None : int);
  t

(* Start recording (idempotent) and drop whatever the ring holds so far. *)
let arm () = ignore (collect () : t)
