(* Helpers shared by the test executables. *)

module Obs = Splay_obs.Obs
module Engine = Splay_sim.Engine

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every message of [net] takes the routed path, as between partitions;
   with [wire] it also leaves through [Rpc.payload_to_value], crosses as
   JSON text and comes back through [Rpc.payload_of_value], as between
   two splayd processes. [on_wire] sees each crossing value with the size
   the message was charged. *)
let route_messages ?(on_wire = fun _ _ -> ()) ~wire eng net =
  let open Splay_runtime in
  Splay_net.Net.set_remote net
    ~local:(fun _ -> false)
    ~route:(fun ~src ~dst ~size ~arrival ~up_wait ~ctx payload ->
      let back =
        match Rpc.payload_to_value payload with
        | Some v when wire ->
            on_wire v size;
            Rpc.payload_of_value (Codec.decode (Codec.encode v))
        | _ -> payload
      in
      ignore
        (Engine.schedule eng ~delay:(arrival -. Engine.now eng) (fun () ->
             Splay_net.Net.deliver_remote net ~size ~src ~dst ~up_wait ~ctx back)))

(* Tracing on around [f], and the global switch off again after it, so
   the rest of the suite runs uninstrumented. *)
let with_obs f =
  Obs.reset ();
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := false;
      Obs.reset ())
    f

(* The bench harness next to the test, when run inside the dune sandbox. *)
let bench_exe () =
  let local = "../bench/main.exe" in
  if Sys.file_exists local then Some local else None

let golden_file name = if Sys.file_exists "golden" then "golden/" ^ name else "test/golden/" ^ name
let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* What [f] prints on stdout. *)
let printed f =
  flush stdout;
  let path = Filename.temp_file "splay-test" ".txt" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let s = read_file path in
  Sys.remove path;
  s

(* The lines of a printed table or dashboard whose first cell is an
   integer (a hop or a window index), split into cells. *)
let numbered_rows text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | first :: _ as cells when int_of_string_opt first <> None -> Some cells
         | _ -> None)

(* Kill while parked, for each waker: a process parks in [wait], is
   killed at t=1, and [after_kill] runs at t=1.5. The kill interrupts the
   wait; the wait's cleanup (its timer cancelled, its waiter skipped)
   runs once; the process ends dead, not crashed; nothing resumes it
   later. *)
let killed_while_parked e ~wait ~after_kill =
  let resumed = ref false and cleaned = ref 0 in
  let p =
    Engine.spawn e (fun () ->
        Fun.protect
          ~finally:(fun () -> incr cleaned)
          (fun () ->
            wait ();
            resumed := true))
  in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Engine.kill e p));
  ignore (Engine.schedule e ~delay:1.5 (fun () -> after_kill ()));
  ignore (Engine.run e);
  Alcotest.(check bool) "no late resume" false !resumed;
  Alcotest.(check int) "unwound once" 1 !cleaned;
  Alcotest.(check bool) "dead" false (Engine.alive p);
  Alcotest.(check (list string)) "no crash" []
    (List.map (fun (_, x) -> Printexc.to_string x) (Engine.crashed e))
