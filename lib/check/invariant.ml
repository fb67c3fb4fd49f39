type phase = Checkpoint | Quiescence

type violation = { v_name : string; v_at : float; v_reason : string }

let violation_to_string v = Printf.sprintf "[%s] at t=%.1f: %s" v.v_name v.v_at v.v_reason

type t = { mutable checks : (string * phase * (unit -> (unit, string) result)) list }

let create () = { checks = [] }

let register t ?(phase = Quiescence) name f = t.checks <- (name, phase, f) :: t.checks

let eval t ~at phase =
  List.filter_map
    (fun (name, p, f) ->
      let applies = match phase with Quiescence -> true | Checkpoint -> p = Checkpoint in
      if not applies then None
      else
        match f () with
        | Ok () -> None
        | Error reason -> Some { v_name = name; v_at = at; v_reason = reason }
        | exception (Splay_sim.Engine.Process_killed as e) -> raise e
        | exception e ->
            Some { v_name = name; v_at = at; v_reason = "oracle raised: " ^ Printexc.to_string e })
    (List.rev t.checks)
