(* Tests for the SPLAY runtime libraries: misc, crypto, codec, sandbox,
   sb_fs, locks, env, rpc. *)

open Splay_sim
open Splay_net
open Splay_runtime

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {2 Misc.between — ring arithmetic} *)

let m = 16 (* modulus for between tests *)

let test_between_basic () =
  let bt x a b = Misc.between x a b ~modulus:m ~incl_lo:false ~incl_hi:false in
  Alcotest.(check bool) "inside" true (bt 5 3 8);
  Alcotest.(check bool) "below" false (bt 2 3 8);
  Alcotest.(check bool) "above" false (bt 9 3 8);
  Alcotest.(check bool) "lo excl" false (bt 3 3 8);
  Alcotest.(check bool) "hi excl" false (bt 8 3 8)

let test_between_wrap () =
  let bt x a b = Misc.between x a b ~modulus:m ~incl_lo:false ~incl_hi:false in
  (* arc from 12 to 4 crosses zero *)
  Alcotest.(check bool) "wrap inside high" true (bt 14 12 4);
  Alcotest.(check bool) "wrap inside low" true (bt 2 12 4);
  Alcotest.(check bool) "wrap outside" false (bt 8 12 4)

let test_between_incl () =
  Alcotest.(check bool) "incl hi" true
    (Misc.between 8 3 8 ~modulus:m ~incl_lo:false ~incl_hi:true);
  Alcotest.(check bool) "incl lo" true
    (Misc.between 3 3 8 ~modulus:m ~incl_lo:true ~incl_hi:false);
  (* a = b: full ring *)
  Alcotest.(check bool) "degenerate full ring" true
    (Misc.between 11 5 5 ~modulus:m ~incl_lo:false ~incl_hi:false)

let test_between_negative_normalization () =
  Alcotest.(check bool) "negative x" true
    (Misc.between (-11) 3 8 ~modulus:m ~incl_lo:false ~incl_hi:false)
(* -11 mod 16 = 5 *)

let prop_between_exclusive_split =
  (* for distinct x, a, b: x is in exactly one of (a,b) and (b,a) *)
  QCheck.Test.make ~name:"between partitions the ring" ~count:1000
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 1000))
    (fun (x, a, b) ->
      let modulus = 64 in
      let x = x mod modulus and a = a mod modulus and b = b mod modulus in
      QCheck.assume (x <> a && x <> b && a <> b);
      let in_ab = Misc.between x a b ~modulus ~incl_lo:false ~incl_hi:false in
      let in_ba = Misc.between x b a ~modulus ~incl_lo:false ~incl_hi:false in
      in_ab <> in_ba)

let test_ring_ops () =
  Alcotest.(check int) "add wraps" 1 (Misc.ring_add 15 2 ~modulus:16);
  Alcotest.(check int) "distance forward" 3 (Misc.ring_distance 14 1 ~modulus:16);
  Alcotest.(check int) "distance zero" 0 (Misc.ring_distance 5 5 ~modulus:16);
  Alcotest.(check int) "pow2" 1024 (Misc.pow2 10)

(* {2 Crypto} *)

let test_sha1_vectors () =
  let check input expected = Alcotest.(check string) input expected (Crypto.sha1_hex input) in
  check "" "da39a3ee5e6b4b0d3255bfef95601890afd80709";
  check "abc" "a9993e364706816aba3e25717850c26c9cd0d89d";
  check "The quick brown fox jumps over the lazy dog"
    "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"

let test_sha1_block_boundaries () =
  (* message lengths around the 64-byte block and 56-byte padding limits *)
  let check input expected = Alcotest.(check string) input expected (Crypto.sha1_hex input) in
  check (String.make 55 'a') "c1c8bbdc22796e28c0e15163d20899b65621d65a";
  check (String.make 56 'a') "c2db330f6083854c99d4b5bfb6e8f29f201be699";
  check (String.make 64 'a') "0098ba824b5c16427bd7a1122a5a442a25ec644d";
  check (String.make 65 'a') "11655326c708d70319be2610e8a57d9a5b959d3b"

(* Native-int rounds: a replica id or node id hash must not allocate per
   round (boxed Int32 arithmetic cost ~650 words per hash). *)
let test_sha1_allocation () =
  let key = "0123456789abcdef" in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Crypto.sha1 key))
  done;
  let per_hash = (Gc.minor_words () -. w0) /. Float.of_int n in
  if per_hash >= 50.0 then
    Alcotest.failf "sha1 of a 16-byte key allocates %.1f minor words" per_hash

let test_hash_to_id_range () =
  for i = 0 to 200 do
    let id = Crypto.hash_to_id (Printf.sprintf "host-%d:2000" i) ~bits:24 in
    Alcotest.(check bool) "in range" true (id >= 0 && id < 1 lsl 24)
  done

let test_hash_to_id_deterministic () =
  Alcotest.(check int) "stable" (Crypto.hash_to_id "x:1" ~bits:24) (Crypto.hash_to_id "x:1" ~bits:24)

(* {2 Codec} *)

let value_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Codec.Null;
        map (fun b -> Codec.Bool b) bool;
        map (fun i -> Codec.Int i) int;
        map (fun s -> Codec.String s) (string_size (int_bound 20));
        map (fun f -> Codec.Float (Float.of_int f /. 8.0)) int;
      ]
  in
  let rec value depth =
    if depth = 0 then base
    else
      frequency
        [
          (3, base);
          (1, map (fun l -> Codec.List l) (list_size (int_bound 4) (value (depth - 1))));
          ( 1,
            map
              (fun l -> Codec.Assoc (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
              (list_size (int_bound 4) (value (depth - 1))) );
        ]
  in
  value 3

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec decode(encode v) = v" ~count:500
    (QCheck.make ~print:(fun v -> Codec.encode v) value_gen)
    (fun v -> Codec.equal v (Codec.decode (Codec.encode v)))

let test_codec_examples () =
  let roundtrip s = Codec.encode (Codec.decode s) in
  Alcotest.(check string) "object" {|{"a":1,"b":[true,null]}|} (roundtrip {|{"a":1,"b":[true,null]}|});
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|} (roundtrip {|"a\"b\\c\nd"|});
  Alcotest.(check string) "spaces tolerated" {|[1,2]|} (roundtrip "[ 1 , 2 ]")

let test_codec_errors () =
  let bad s = Alcotest.check_raises s (Codec.Parse_error "") (fun () ->
      try ignore (Codec.decode s) with Codec.Parse_error _ -> raise (Codec.Parse_error "")) in
  bad "{";
  bad "[1,]";
  bad "nul";
  bad {|{"a" 1}|};
  bad "[1] garbage"

let test_codec_accessors () =
  let v = Codec.decode {|{"n":3,"s":"hi","f":1.5,"l":[1,2],"b":true}|} in
  Alcotest.(check int) "int" 3 Codec.(to_int (member "n" v));
  Alcotest.(check string) "string" "hi" Codec.(to_string (member "s" v));
  Alcotest.(check (float 1e-9)) "float" 1.5 Codec.(to_float (member "f" v));
  Alcotest.(check (float 1e-9)) "int as float" 3.0 Codec.(to_float (member "n" v));
  Alcotest.(check bool) "bool" true Codec.(to_bool (member "b" v));
  Alcotest.(check int) "list" 2 (List.length Codec.(to_list (member "l" v)));
  Alcotest.check_raises "missing member" (Codec.Parse_error {|missing field "zz"|}) (fun () ->
      ignore (Codec.member "zz" v))

let test_framing () =
  let f1 = Codec.frame "hello" and f2 = Codec.frame "" in
  let buf = f1 ^ f2 ^ "12\npartial" in
  (match Codec.unframe buf ~pos:0 with
  | Some (p, next) ->
      Alcotest.(check string) "first" "hello" p;
      (match Codec.unframe buf ~pos:next with
      | Some (p2, next2) ->
          Alcotest.(check string) "second empty" "" p2;
          Alcotest.(check (option (pair string int))) "incomplete" None
            (Codec.unframe buf ~pos:next2)
      | None -> Alcotest.fail "second frame missing")
  | None -> Alcotest.fail "first frame missing")

let prop_framing_roundtrip =
  QCheck.Test.make ~name:"frame/unframe roundtrip" ~count:300
    QCheck.(list (string_of_size Gen.(int_bound 40)))
    (fun payloads ->
      let buf = String.concat "" (List.map Codec.frame payloads) in
      let rec collect pos acc =
        match Codec.unframe buf ~pos with
        | Some (p, next) -> collect next (p :: acc)
        | None -> List.rev acc
      in
      collect 0 [] = payloads)

(* {2 Sandbox} *)

let test_sandbox_memory_kill () =
  let killed = ref None in
  let sb = Sandbox.create ~limits:{ Sandbox.unlimited with max_memory = 1000 } () in
  Sandbox.set_on_kill sb (fun m -> killed := Some m);
  Sandbox.alloc sb 900;
  Alcotest.(check int) "used" 900 (Sandbox.memory_used sb);
  (try Sandbox.alloc sb 200 with Sandbox.Violation _ -> ());
  Alcotest.(check bool) "kill callback fired" true (!killed <> None)

let test_sandbox_fs_quota_nonfatal () =
  let killed = ref false in
  let sb = Sandbox.create ~limits:{ Sandbox.unlimited with max_fs_bytes = 100 } () in
  Sandbox.set_on_kill sb (fun _ -> killed := true);
  Sandbox.fs_grow sb 90;
  (try Sandbox.fs_grow sb 20 with Sandbox.Violation _ -> ());
  Alcotest.(check bool) "disk violation is not fatal" false !killed;
  Alcotest.(check int) "usage unchanged by failed op" 90 (Sandbox.fs_used sb)

let test_sandbox_sockets () =
  let sb = Sandbox.create ~limits:{ Sandbox.unlimited with max_sockets = 2 } () in
  Sandbox.socket_opened sb;
  Sandbox.socket_opened sb;
  Alcotest.check_raises "cap" (Sandbox.Violation "socket limit reached (2)") (fun () ->
      Sandbox.socket_opened sb);
  Sandbox.socket_closed sb;
  Sandbox.socket_opened sb;
  Alcotest.(check int) "open count" 2 (Sandbox.sockets_open sb)

let test_sandbox_restrict () =
  let admin = { Sandbox.unlimited with max_memory = 1000; max_sockets = 10 } in
  let ctl = { Sandbox.unlimited with max_memory = 5000; max_sockets = 5 } in
  let r = Sandbox.restrict admin ctl in
  Alcotest.(check int) "controller cannot weaken" 1000 r.Sandbox.max_memory;
  Alcotest.(check int) "controller can strengthen" 5 r.Sandbox.max_sockets

let test_sandbox_blacklist () =
  let sb = Sandbox.create () in
  Sandbox.blacklist sb 3;
  Alcotest.(check bool) "banned" true (Sandbox.blacklisted sb 3);
  Alcotest.(check bool) "others ok" false (Sandbox.blacklisted sb 4)

(* Every enforcement — fatal or not — must leave a [sandbox.violation]
   point event in the observability trace, with [fatal] telling the two
   kill paths apart. A nemesis-squeezed instance that dies without one is
   undebuggable. *)
let with_obs_trace f =
  Support.with_obs (fun () ->
      f ();
      Splay_obs.Obs.trace_jsonl ())

let test_sandbox_memory_kill_traced () =
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create ~limits:{ Sandbox.unlimited with max_memory = 1000 } () in
        try Sandbox.alloc sb 2000 with Sandbox.Violation _ -> ())
  in
  Alcotest.(check bool) "violation event" true (string_contains trace "sandbox.violation");
  Alcotest.(check bool) "fatal" true (string_contains trace "\"fatal\":\"true\"");
  Alcotest.(check bool) "reason names memory" true (string_contains trace "memory")

let test_sandbox_socket_denial_traced () =
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create ~limits:{ Sandbox.unlimited with max_sockets = 1 } () in
        Sandbox.socket_opened sb;
        try Sandbox.socket_opened sb with Sandbox.Violation _ -> ())
  in
  Alcotest.(check bool) "violation event" true (string_contains trace "sandbox.violation");
  Alcotest.(check bool) "nonfatal" true (string_contains trace "\"fatal\":\"false\"");
  Alcotest.(check bool) "reason names sockets" true (string_contains trace "socket")

let test_sandbox_fs_quota_traced () =
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create ~limits:{ Sandbox.unlimited with max_fs_bytes = 100 } () in
        Sandbox.fs_grow sb 90;
        try Sandbox.fs_grow sb 20 with Sandbox.Violation _ -> ())
  in
  Alcotest.(check bool) "violation event" true (string_contains trace "sandbox.violation");
  Alcotest.(check bool) "nonfatal" true (string_contains trace "\"fatal\":\"false\"")

let test_sandbox_squeeze_traced () =
  (* the [splay check] squeeze nemesis: tightening the send budget makes
     the next send fail, visibly *)
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create () in
        Sandbox.network_send sb 512;
        Sandbox.squeeze sb
          { Sandbox.unlimited with max_send_bytes = Sandbox.bytes_sent sb + 64 };
        try Sandbox.network_send sb 128 with Sandbox.Violation _ -> ())
  in
  Alcotest.(check bool) "violation event" true (string_contains trace "sandbox.violation");
  Alcotest.(check bool) "nonfatal" true (string_contains trace "\"fatal\":\"false\"")

(* {2 Test fixtures: a small cluster network} *)

let with_cluster ?(n = 4) f =
  let eng = Engine.create ~seed:7 () in
  let tb = Testbed.cluster ~n (Engine.rng eng) in
  let net = Net.create eng tb in
  f eng net;
  match Engine.crashed eng with
  | [] -> ()
  | (p, e) :: _ ->
      Alcotest.failf "process %s crashed: %s" (Engine.proc_name p) (Printexc.to_string e)

let mk_env net host = Env.create net ~me:(Addr.make host 2000)

(* {2 Sb_fs} *)

let test_fs_write_read () =
  with_cluster (fun _ net ->
      let env = mk_env net 0 in
      let fs = Sb_fs.create env in
      let f = Sb_fs.open_file fs "/tmp/chunk.0" ~mode:`Write in
      Sb_fs.write f "hello ";
      Sb_fs.write f "world";
      Sb_fs.close f;
      let g = Sb_fs.open_file fs "tmp/chunk.0" ~mode:`Read in
      Alcotest.(check string) "path normalization unifies" "hello world" (Sb_fs.read_all g);
      Sb_fs.close g;
      Alcotest.(check (option int)) "size" (Some 11) (Sb_fs.file_size fs "/tmp/chunk.0");
      Alcotest.(check (list string)) "list" [ "tmp/chunk.0" ] (Sb_fs.list_files fs))

let test_fs_quota () =
  with_cluster (fun _ net ->
      let env =
        Env.create net ~me:(Addr.make 0 2000)
          ~limits:{ Sandbox.unlimited with max_fs_bytes = 10 }
      in
      let fs = Sb_fs.create env in
      let f = Sb_fs.open_file fs "a" ~mode:`Write in
      Sb_fs.write f "12345";
      (try
         Sb_fs.write f "678901";
         Alcotest.fail "quota not enforced"
       with Sb_fs.Fs_error _ -> ());
      (* instance is still alive: disk violations are not fatal *)
      Alcotest.(check bool) "still running" false (Env.is_stopped env);
      Sb_fs.write f "67890";
      Alcotest.(check int) "fits exactly" 10 (Sb_fs.used_bytes fs))

let test_fs_truncate_and_remove () =
  with_cluster (fun _ net ->
      let env = mk_env net 0 in
      let fs = Sb_fs.create env in
      let f = Sb_fs.open_file fs "x" ~mode:`Write in
      Sb_fs.write f "aaaa";
      Sb_fs.close f;
      let f2 = Sb_fs.open_file fs "x" ~mode:`Write in
      Alcotest.(check int) "truncated" 0 (Sb_fs.size f2);
      Sb_fs.write f2 "b";
      Alcotest.check_raises "remove while open" (Sb_fs.Fs_error "file in use: x") (fun () ->
          Sb_fs.remove fs "x");
      Sb_fs.close f2;
      Sb_fs.remove fs "x";
      Alcotest.(check bool) "gone" false (Sb_fs.exists fs "x");
      Alcotest.(check int) "quota returned" 0 (Sb_fs.used_bytes fs))

let test_fs_missing_read () =
  with_cluster (fun _ net ->
      let env = mk_env net 0 in
      let fs = Sb_fs.create env in
      Alcotest.check_raises "read missing" (Sb_fs.Fs_error "no such file: nope") (fun () ->
          ignore (Sb_fs.open_file fs "nope" ~mode:`Read)))

let test_fs_isolation () =
  with_cluster (fun _ net ->
      let env1 = mk_env net 0 and env2 = mk_env net 1 in
      let fs1 = Sb_fs.create env1 and fs2 = Sb_fs.create env2 in
      let f = Sb_fs.open_file fs1 "shared-name" ~mode:`Write in
      Sb_fs.write f "secret";
      Sb_fs.close f;
      Alcotest.(check bool) "other instance cannot see the file" false
        (Sb_fs.exists fs2 "shared-name"))

(* {2 Locks} *)

let test_lock_mutual_exclusion () =
  with_cluster (fun eng _ ->
      let l = Locks.create () in
      let in_section = ref false and violations = ref 0 and runs = ref 0 in
      for _ = 1 to 5 do
        ignore
          (Engine.spawn eng (fun () ->
               Locks.with_lock l (fun () ->
                   if !in_section then incr violations;
                   in_section := true;
                   Engine.sleep 1.0;
                   in_section := false;
                   incr runs)))
      done;
      ignore (Engine.run eng);
      Alcotest.(check int) "no overlap" 0 !violations;
      Alcotest.(check int) "all ran" 5 !runs;
      Alcotest.(check bool) "released" false (Locks.is_locked l))

let test_lock_fifo () =
  with_cluster (fun eng _ ->
      let l = Locks.create () in
      let order = ref [] in
      Locks.lock l;
      for i = 1 to 3 do
        ignore
          (Engine.spawn eng (fun () ->
               Locks.lock l;
               order := i :: !order;
               Locks.unlock l))
      done;
      ignore (Engine.schedule eng ~delay:1.0 (fun () -> Locks.unlock l));
      ignore (Engine.run eng);
      Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !order))

let test_lock_kill_while_parked () =
  with_cluster (fun eng _ ->
      let l = Locks.create () in
      Locks.lock l;
      let next = ref false in
      Support.killed_while_parked eng
        ~wait:(fun () -> Locks.lock l)
        ~after_kill:(fun () ->
          (* the dead waiter is skipped: ownership goes to the live one *)
          ignore
            (Engine.spawn eng (fun () ->
                 Locks.lock l;
                 next := true;
                 Locks.unlock l));
          ignore (Engine.schedule eng ~delay:1.0 (fun () -> Locks.unlock l)));
      Alcotest.(check bool) "next waiter got the lock" true !next;
      Alcotest.(check bool) "released" false (Locks.is_locked l))

(* A queued waiter killed in the same event as the unlock that reaches it
   is still pending (its kill event has yet to run): the lock must pass
   it over, or it stays held by a dead process forever. *)
let test_lock_kill_and_unlock_same_event () =
  with_cluster (fun eng _ ->
      let l = Locks.create () in
      Locks.lock l;
      let third = ref false in
      let doomed = Engine.spawn eng (fun () -> Locks.with_lock l ignore) in
      ignore (Engine.spawn eng (fun () -> Locks.with_lock l (fun () -> third := true)));
      ignore
        (Engine.schedule eng ~delay:1.0 (fun () ->
             Engine.kill eng doomed;
             Locks.unlock l));
      ignore (Engine.run eng);
      Alcotest.(check bool) "the third waiter got the lock" true !third;
      Alcotest.(check bool) "released" false (Locks.is_locked l))

(* The other order: the unlock hands the lock to the queued waiter and a
   kill reaches that waiter in the same event, before it resumes. The
   dead waiter passes the lock on instead of taking it with it. *)
let test_lock_unlock_then_kill_same_event () =
  with_cluster (fun eng _ ->
      let l = Locks.create () in
      Locks.lock l;
      let third = ref false in
      let doomed = Engine.spawn eng (fun () -> Locks.with_lock l ignore) in
      ignore (Engine.spawn eng (fun () -> Locks.with_lock l (fun () -> third := true)));
      ignore
        (Engine.schedule eng ~delay:1.0 (fun () ->
             Locks.unlock l;
             Engine.kill eng doomed));
      ignore (Engine.run eng);
      Alcotest.(check bool) "the third waiter got the lock" true !third;
      Alcotest.(check bool) "released" false (Locks.is_locked l))

(* Procedures the RPC tests serve. *)
let p_noop = Rpc.proc "noop" Rpc.no_args Codec.unit
let p_slow = Rpc.proc "slow" Rpc.no_args Codec.int
let p_event = Rpc.proc "event" (Rpc.arg Codec.int) Codec.unit

let test_rpc_kill_while_parked () =
  with_cluster (fun eng net ->
      let server = mk_env net 0 and client = mk_env net 1 in
      (* the reply comes after the kill *)
      Rpc.handle server p_slow (fun () ->
          Engine.sleep 2.0;
          1);
      Rpc.client client;
      let pending_after_kill = ref (-1) and table_after_kill = ref (-1) in
      Support.killed_while_parked eng
        ~wait:(fun () -> ignore (Rpc.invoke client server.Env.me ~timeout:10.0 p_slow ()))
        ~after_kill:(fun () ->
          table_after_kill := Hashtbl.length (Env.rpc_pending client);
          (* only the handler's sleep is left: the 10 s timer went with the call *)
          pending_after_kill := Engine.pending_events eng);
      Alcotest.(check int) "pending entry removed at the kill" 0 !table_after_kill;
      Alcotest.(check int) "timer cancelled at the kill" 1 !pending_after_kill;
      Alcotest.(check bool) "late reply dropped, not the timeout" true (Engine.now eng < 10.0))

let test_lock_released_on_kill () =
  with_cluster (fun eng _ ->
      let l = Locks.create () in
      let p =
        Engine.spawn eng (fun () -> Locks.with_lock l (fun () -> Engine.sleep 100.0))
      in
      ignore (Engine.schedule eng ~delay:1.0 (fun () -> Engine.kill eng p));
      ignore (Engine.run eng);
      Alcotest.(check bool) "released by unwinding" false (Locks.is_locked l))

let test_try_lock () =
  let l = Locks.create () in
  Alcotest.(check bool) "acquire" true (Locks.try_lock l);
  Alcotest.(check bool) "busy" false (Locks.try_lock l);
  Locks.unlock l;
  Alcotest.(check bool) "again" true (Locks.try_lock l)

(* {2 Env} *)

let test_env_stop_kills_everything () =
  with_cluster (fun eng net ->
      let env = mk_env net 0 in
      let alive_work = ref 0 in
      ignore
        (Env.thread env (fun () ->
             while true do
               Env.sleep 1.0;
               incr alive_work
             done));
      ignore (Env.periodic env 1.0 (fun () -> incr alive_work));
      ignore (Engine.schedule eng ~delay:5.5 (fun () -> Env.stop env));
      ignore (Engine.run ~until:100.0 eng);
      Alcotest.(check bool) "stopped" true (Env.is_stopped env);
      (* 5 ticks from each of the two processes *)
      Alcotest.(check int) "work stopped at kill time" 10 !alive_work)

let test_env_stop_idempotent () =
  with_cluster (fun _ net ->
      let env = mk_env net 0 in
      let hooks = ref 0 in
      Env.on_stop env (fun () -> incr hooks);
      Env.stop env;
      Env.stop env;
      Alcotest.(check int) "hook once" 1 !hooks)

let test_env_self_stop () =
  with_cluster (fun eng net ->
      let env = mk_env net 0 in
      let after = ref false in
      ignore
        (Env.thread env (fun () ->
             Env.sleep 1.0;
             Env.stop env;
             after := true));
      ignore (Engine.run eng);
      Alcotest.(check bool) "self-stop unwinds" false !after;
      Alcotest.(check bool) "stopped" true (Env.is_stopped env))

(* {2 Sb_socket + RPC} *)

let test_rpc_basic_call () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let p_add = Rpc.proc "add" (Rpc.args2 Codec.int Codec.int) Codec.int in
      Rpc.handle server_env p_add (fun (a, b) -> a + b);
      let got = ref (Ok 0) in
      ignore
        (Env.thread client_env (fun () ->
             got := Rpc.invoke client_env server_env.Env.me p_add (19, 23)));
      ignore (Engine.run eng);
      Alcotest.(check bool) "rpc result" true (!got = Ok 42))

let test_rpc_latency_realistic () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.handle server_env p_noop Fun.id;
      let elapsed = ref 0.0 in
      ignore
        (Env.thread client_env (fun () ->
             let t0 = Engine.now eng in
             ignore (Rpc.invoke client_env server_env.Env.me p_noop ());
             elapsed := Engine.now eng -. t0));
      ignore (Engine.run eng);
      (* cluster RTT ~0.1ms plus processing: strictly positive, under 10ms *)
      Alcotest.(check bool) "took network time" true (!elapsed > 0.0 && !elapsed < 0.01))

let test_rpc_timeout_on_dead_host () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.handle server_env p_noop Fun.id;
      Testbed.set_host_up (Net.testbed net) 0 false;
      let result = ref (Ok ()) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.invoke client_env server_env.Env.me ~timeout:2.0 p_noop ()));
      ignore (Engine.run eng);
      (match !result with
      | Error Rpc.Timeout -> ()
      | _ -> Alcotest.fail "expected timeout");
      Alcotest.(check bool) "timed out at deadline" true (Engine.now eng >= 2.0))

let test_rpc_remote_error () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let p_boom = Rpc.proc "boom" Rpc.no_args Codec.unit in
      Rpc.handle server_env p_boom (fun () -> failwith "kaboom");
      let result = ref (Ok ()) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.invoke client_env server_env.Env.me p_boom ()));
      ignore (Engine.run eng);
      match !result with
      | Error (Rpc.Remote msg) ->
          Alcotest.(check bool) "message mentions cause" true (string_contains msg "kaboom")
      | _ -> Alcotest.fail "expected remote error")

let test_rpc_unknown_proc () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.client server_env;
      let p_nope = Rpc.proc "nope" Rpc.no_args Codec.unit in
      let result = ref (Ok ()) in
      ignore
        (Env.thread client_env (fun () -> result := Rpc.invoke client_env server_env.Env.me p_nope ()));
      ignore (Engine.run eng);
      match !result with
      | Error (Rpc.Remote _) -> ()
      | _ -> Alcotest.fail "expected unknown-procedure error")

let test_rpc_ping () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.client server_env;
      let up = ref false and down = ref true in
      ignore
        (Env.thread client_env (fun () ->
             up := Rpc.ping client_env Rpc.p_ping server_env.Env.me;
             Testbed.set_host_up (Net.testbed net) 0 false;
             down := Rpc.ping client_env ~timeout:1.0 Rpc.p_ping server_env.Env.me));
      ignore (Engine.run eng);
      Alcotest.(check bool) "alive host pings" true !up;
      Alcotest.(check bool) "dead host does not" false !down)

let test_rpc_blocking_handler () =
  (* a handler that itself issues an RPC: recursive routing must not deadlock *)
  with_cluster (fun eng net ->
      let a = mk_env net 0 and b = mk_env net 1 and c = mk_env net 2 in
      let p_leaf = Rpc.proc "leaf" Rpc.no_args Codec.string in
      let p_via = Rpc.proc "via" Rpc.no_args Codec.string in
      Rpc.handle c p_leaf (fun () -> "from-c");
      Rpc.handle b p_via (fun () ->
          match Rpc.invoke b c.Env.me p_leaf () with
          | Ok v -> "b+" ^ v
          | Error e -> raise (Rpc.Rpc_error e));
      let got = ref (Ok "") in
      ignore (Env.thread a (fun () -> got := Rpc.invoke a b.Env.me p_via ()));
      ignore (Engine.run eng);
      Alcotest.(check bool) "chained" true (!got = Ok "b+from-c"))

let test_rpc_blacklist () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.client server_env;
      Sandbox.blacklist client_env.Env.sandbox 0;
      let result = ref (Ok ()) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.invoke client_env server_env.Env.me p_noop ()));
      ignore (Engine.run eng);
      match !result with
      | Error (Rpc.Network _) -> ()
      | _ -> Alcotest.fail "expected local network refusal")

let test_rpc_concurrent_calls () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let p_slowid = Rpc.proc "slowid" (Rpc.arg Codec.int) Codec.int in
      Rpc.handle server_env p_slowid (fun i ->
          Engine.sleep 1.0;
          i);
      let results = ref [] in
      for i = 1 to 4 do
        ignore
          (Env.thread client_env (fun () ->
               match Rpc.invoke client_env server_env.Env.me p_slowid i with
               | Ok v -> results := v :: !results
               | Error e -> Alcotest.fail (Rpc.error_to_string e)))
      done;
      ignore (Engine.run eng);
      Alcotest.(check (list int)) "all replies matched to callers" [ 1; 2; 3; 4 ]
        (List.sort Int.compare !results);
      (* handlers ran concurrently: total time ~1s, not 4s *)
      Alcotest.(check bool) "concurrent handlers" true (Engine.now eng < 2.0))

let test_rpc_reregistration_last_wins () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let p_ver = Rpc.proc "ver" Rpc.no_args Codec.int in
      Rpc.handle server_env p_ver (fun () -> 1);
      (* re-registering the same procedure replaces the handler: the later
         binding wins and the older one is gone, not shadowed *)
      Rpc.handle server_env p_ver (fun () -> 2);
      Rpc.add_handler server_env "ver" (fun _ -> Codec.Int 3);
      let got = ref (Ok 0) in
      ignore
        (Env.thread client_env (fun () -> got := Rpc.invoke client_env server_env.Env.me p_ver ()));
      ignore (Engine.run eng);
      Alcotest.(check bool) "last registration wins" true (!got = Ok 3);
      Alcotest.(check int) "single binding, not a shadow stack" 1
        (List.length server_env.Env.rpc_handlers))

(* The one untyped entry, as a benchmark overrides a typed procedure: an
   [add_handler] handler serves a typed call and a typed notify of its
   name. The arguments reach it as their trees, and the caller's result
   type parses its answer, or reports a reply it cannot parse. *)
let test_rpc_untyped_handler () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let p_rumor = Rpc.proc "rumor" (Rpc.args2 Codec.string Codec.int) (Codec.option Codec.int) in
      Rpc.handle server_env p_rumor (fun _ -> Alcotest.fail "the replaced handler ran");
      let seen = ref [] in
      Rpc.add_handler server_env "rumor" (fun args ->
          seen := args :: !seen;
          if List.length !seen < 3 then Codec.Int (List.length !seen) else Codec.String "no");
      let got = ref [] in
      ignore
        (Env.thread client_env (fun () ->
             Rpc.notify client_env [ server_env.Env.me ] p_rumor ("r", 0);
             got := [ Rpc.invoke client_env server_env.Env.me p_rumor ("r", 1) ];
             got := Rpc.invoke client_env server_env.Env.me p_rumor ("r", 2) :: !got));
      ignore (Engine.run eng);
      Alcotest.(check bool) "arguments arrive as trees" true
        (List.rev !seen
        = List.map (fun i -> [ Codec.String "r"; Codec.Int i ]) [ 0; 1; 2 ]);
      match List.rev !got with
      | [ Ok (Some 2); Error (Rpc.Remote _) ] -> ()
      | _ -> Alcotest.fail "expected the answer parsed, then an unparsable answer refused")

let test_rpc_notify_one_way () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let got = ref [] in
      Rpc.handle server_env p_event (fun i -> got := i :: !got);
      let sent_before = Net.messages_sent net in
      ignore
        (Env.thread client_env (fun () ->
             Rpc.notify client_env [ server_env.Env.me ] p_event 1;
             Rpc.notify client_env [ server_env.Env.me ] p_event 2));
      ignore (Engine.run eng);
      Alcotest.(check (list int)) "both delivered in order" [ 1; 2 ] (List.rev !got);
      (* fire-and-forget: two requests on the wire and nothing coming back *)
      Alcotest.(check int) "no reply traffic" 2 (Net.messages_sent net - sent_before);
      (* a notify to an unbound/unknown destination is silently dropped *)
      ignore
        (Env.thread client_env (fun () -> Rpc.notify client_env [ Addr.make 3 2000 ] p_event 9));
      ignore (Engine.run eng);
      Alcotest.(check (list int)) "drop left state untouched" [ 1; 2 ] (List.rev !got))

(* Footprint pins for the message plane, in words reachable from the
   simulation's roots ([Obj.reachable_words] deltas; no collection is
   forced). A queued one-way message is its request, its three entries
   in the engine's message queue and its slot in the net's columns, each
   with the slack of paged storage; a parked RPC caller is its process,
   its waker and the timer that backs it. Both are multiplied by every
   message and every caller a large run holds at once. *)
let footprint_n = 10_000

let test_notify_footprint () =
  let n = footprint_n in
  let eng = Engine.create ~seed:17 () in
  let tb = Testbed.synthetic ~hosts:(n + 1) (Engine.rng eng) in
  let net = Net.create eng tb in
  let envs = Array.init (n + 1) (fun i -> Env.create net ~me:(Addr.make i 2000)) in
  Array.iter (fun env -> Rpc.handle env p_event ignore) envs;
  let root () = Obj.reachable_words (Obj.repr (eng, net, envs)) in
  let base = root () in
  for i = 1 to n do
    Rpc.notify envs.(0) [ envs.(i).Env.me ] p_event 1
  done;
  let per_msg = Float.of_int (root () - base) /. Float.of_int n in
  Alcotest.(check int) "every message queued" n (Engine.pending_events eng);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per queued one-way message (bound 15.5)" per_msg)
    true (per_msg < 15.5)

let test_parked_caller_footprint () =
  let n = footprint_n in
  let eng = Engine.create ~seed:17 () in
  let tb = Testbed.synthetic ~hosts:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let env = Env.create net ~me:(Addr.make 0 2000) in
  Rpc.client env;
  (* nothing is bound at [dst]: every request is dropped on delivery and
     every caller stays parked until its 120 s timeout, so at 110 s only
     the callers' timers are queued *)
  let dst = Addr.make 1 2000 in
  let root () = Obj.reachable_words (Obj.repr (eng, env)) in
  let base = root () in
  for _ = 1 to n do
    ignore (Env.thread env (fun () -> ignore (Rpc.invoke env dst p_noop ())))
  done;
  ignore (Engine.run ~until:110.0 eng);
  let per_caller = Float.of_int (root () - base) /. Float.of_int n in
  Alcotest.(check int) "every caller parked" n (Hashtbl.length (Env.rpc_pending env));
  Alcotest.(check int) "no message in flight" n (Engine.pending_events eng);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per parked RPC caller (bound 38)" per_caller)
    true (per_caller < 38.0)

(* A parked callee: a handler blocked in [Ivar.read], as a [Dht_store]
   fetch waits for its owner's service slot under serve. One-way requests,
   so no caller is parked; every handler parks on its own Ivar, held by a
   table the way the store's queue holds it. What stays reachable is the
   process record, the Ivar, its waiter cell and the waker with its
   continuation block (fiber stacks are not scanned). *)
let test_parked_callee_footprint () =
  let n = footprint_n in
  let eng = Engine.create ~seed:17 () in
  let tb = Testbed.synthetic ~hosts:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let client = Env.create net ~me:(Addr.make 0 2000) in
  let server = Env.create net ~me:(Addr.make 1 2000) in
  let slots = Queue.create () in
  let p_fetch = Rpc.proc "fetch" Rpc.no_args Codec.unit in
  Rpc.handle server p_fetch (fun () ->
      let iv = Ivar.create () in
      Queue.add iv slots;
      Ivar.read iv);
  Rpc.client client;
  let root () = Obj.reachable_words (Obj.repr (eng, client, server, slots)) in
  let base = root () in
  for _ = 1 to n do
    Rpc.notify client [ server.Env.me ] p_fetch ()
  done;
  ignore (Engine.run eng);
  let per_callee = Float.of_int (root () - base) /. Float.of_int n in
  Alcotest.(check int) "every callee parked" n (Env.live_procs server);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending_events eng);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per parked RPC callee (bound 32)" per_callee)
    true (per_callee < 32.0)

(* Minor words per bare [invoke] round trip, both ends: the request send,
   the callee's process, its reply and the caller's suspension and resume
   (4 events). [Obj.reachable_words] does not see closures that live only
   on a parked fiber's stack; allocation counts them. *)
let test_roundtrip_minor_words () =
  let eng = Engine.create ~seed:17 () in
  let tb = Testbed.synthetic ~hosts:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server = Env.create net ~me:(Addr.make 0 2000) in
  let client = Env.create net ~me:(Addr.make 1 2000) in
  Rpc.handle server p_noop Fun.id;
  Rpc.client client;
  let calls k =
    ignore
      (Env.thread client (fun () ->
           for _ = 1 to k do
             match Rpc.invoke client server.Env.me p_noop () with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "call failed: %s" (Rpc.error_to_string e)
           done));
    ignore (Engine.run eng)
  in
  (* warm up: the pending table and the event queue reach their size *)
  calls 100;
  let n = 20_000 in
  let e0 = (Engine.stats eng).Engine.events_fired in
  let w0 = Gc.minor_words () in
  calls n;
  let per_call = (Gc.minor_words () -. w0) /. Float.of_int n in
  let events = (Engine.stats eng).Engine.events_fired - e0 in
  (* plus the caller thread's own start event *)
  Alcotest.(check int) "4 events per round trip" ((4 * n) + 1) events;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per invoke round trip (bound 105)" per_call)
    true (per_call < 105.0)

let test_message_loss_forces_timeout () =
  with_cluster (fun eng net ->
      Net.set_loss net 1.0;
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.handle server_env p_noop Fun.id;
      let result = ref (Ok ()) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.invoke client_env server_env.Env.me ~timeout:1.0 p_noop ()));
      ignore (Engine.run eng);
      match !result with
      | Error Rpc.Timeout -> ()
      | _ -> Alcotest.fail "expected timeout under full loss")

(* {2 Log} *)

let test_log_levels_and_memory () =
  let eng = Engine.create () in
  let log = Log.create ~level:Log.Info ~sink:(Log.Memory 3) ~name:"n" eng in
  Log.debug log "invisible %d" 1;
  Log.info log "a";
  Log.warn log "b";
  Alcotest.(check bool) "debug disabled" false (Log.enabled log Log.Debug);
  Alcotest.(check int) "two retained" 2 (List.length (Log.entries log));
  Log.error log "c";
  Log.error log "d";
  (* capacity 3: oldest dropped *)
  let msgs = List.map (fun (_, _, m) -> m) (Log.entries log) in
  Alcotest.(check (list string)) "ring buffer" [ "b"; "c"; "d" ] msgs;
  Alcotest.(check int) "emitted counts all enabled" 4 (Log.count log);
  Log.set_level log Log.Error;
  Log.warn log "dropped";
  Alcotest.(check int) "level filter" 4 (Log.count log)

let test_log_forward_sink () =
  let eng = Engine.create () in
  let collected = ref [] in
  let log =
    Log.create ~name:"node-7"
      ~sink:
        (Log.Forward
           (fun ~time ~level ~node msg -> collected := (time, level, node, msg) :: !collected))
      eng
  in
  ignore (Engine.schedule eng ~delay:5.0 (fun () -> Log.info log "hello"));
  ignore (Engine.run eng);
  match !collected with
  | [ (t, Log.Info, node, msg) ] ->
      Alcotest.(check (float 1e-9)) "stamped with virtual time" 5.0 t;
      Alcotest.(check string) "tagged with the instance name" "node-7" node;
      Alcotest.(check string) "raw message, no prefix" "hello" msg
  | _ -> Alcotest.fail "expected one forwarded entry"

(* {2 Events: the paper's events.thread / periodic / sleep} *)

let test_events_aliases () =
  with_cluster (fun eng net ->
      let env = mk_env net 0 in
      let ticks = ref 0 and ran = ref false in
      ignore (Env.thread env (fun () -> ran := true));
      ignore (Env.periodic env 2.0 (fun () -> incr ticks));
      ignore
        (Engine.spawn eng (fun () ->
             Engine.sleep 7.0;
             Env.stop env));
      ignore (Engine.run eng);
      Alcotest.(check bool) "thread ran" true !ran;
      Alcotest.(check int) "three periods in 7s" 3 !ticks)

(* {2 Misc helpers} *)

let test_misc_take_and_duration () =
  Alcotest.(check (list int)) "take prefix" [ 1; 2 ] (Misc.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take all" [ 1 ] (Misc.take 5 [ 1 ]);
  Alcotest.(check (list int)) "take zero" [] (Misc.take 0 [ 1; 2 ]);
  Alcotest.(check string) "seconds" "12.0s" (Misc.duration_to_string 12.0);
  Alcotest.(check string) "minutes" "2m30s" (Misc.duration_to_string 150.0);
  Alcotest.(check string) "hours" "1h01m" (Misc.duration_to_string 3660.0)

let test_codec_encoded_size () =
  let check_sz name v =
    Alcotest.(check int) name (String.length (Codec.encode v)) (Codec.encoded_size v)
  in
  check_sz "nested" (Codec.Assoc [ ("k", Codec.List [ Codec.Int 1; Codec.Null ]) ]);
  check_sz "empty list" (Codec.List []);
  check_sz "empty object" (Codec.Assoc []);
  check_sz "min_int" (Codec.Int min_int);
  check_sz "max_int" (Codec.Int max_int);
  check_sz "negative" (Codec.Int (-7));
  check_sz "control chars" (Codec.String "a\x01\"\\\n\r\tz");
  check_sz "float integral" (Codec.Float 3.0);
  check_sz "float fraction" (Codec.Float 0.1);
  (* sizing runs on every request and reply: it must not allocate *)
  let route_reply =
    Codec.List
      [ Codec.String "9f8e7d6c5b4a39281706f5e4d3c2b1a0"; Codec.String "10.0.3.7:2000"; Codec.Int 3 ]
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Codec.encoded_size route_reply))
  done;
  Alcotest.(check (float 0.0)) "encoded_size allocates nothing" 0.0 (Gc.minor_words () -. w0)

(* The structural-recursion [encoded_size] must agree with the writer for
   every value shape — it is used to charge network byte costs, so a drift
   would silently skew every simulated message size. *)
let prop_encoded_size =
  QCheck.Test.make ~name:"encoded_size v = length (encode v)" ~count:500
    (QCheck.make ~print:(fun v -> Codec.encode v) value_gen)
    (fun v -> Codec.encoded_size v = String.length (Codec.encode v))

(* An [Int] is sized by counting digits with comparisons: every power of
   ten and its neighbours, both signs, the extremes, and random ints of
   every width. *)
let prop_int_length =
  let rec powers p acc = if p > max_int / 10 then p :: acc else powers (p * 10) (p :: acc) in
  let edges =
    List.concat_map (fun p -> [ p - 1; p; p + 1; 1 - p; -p; -p - 1 ]) (powers 1 [])
    @ [ max_int; max_int - 1; min_int; min_int + 1 ]
  in
  let any_width =
    QCheck.Gen.(
      let* k = int_bound 62 and* m = int and* neg = bool in
      let v = m land ((1 lsl k) - 1) in
      return (if neg then -v else v))
  in
  QCheck.Test.make ~name:"Int sizes = encode length" ~count:2000
    (QCheck.make ~print:string_of_int QCheck.Gen.(oneof [ oneofl edges; any_width ]))
    (fun i -> Codec.encoded_size (Codec.Int i) = String.length (Codec.encode (Codec.Int i)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_between_exclusive_split;
      prop_codec_roundtrip;
      prop_framing_roundtrip;
      prop_encoded_size;
      prop_int_length;
    ]

(* {2 Sb_stream — TCP-like connections} *)

let test_stream_echo () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Sb_stream.listen server_env ~port:4000 ~on_accept:(fun conn ->
          let rec loop () =
            match Sb_stream.recv_timeout conn 60.0 with
            | Some msg ->
                Sb_stream.send conn ("echo:" ^ msg);
                loop ()
            | None -> ()
          in
          loop ());
      let got = ref [] in
      ignore
        (Engine.spawn eng (fun () ->
             let conn = Sb_stream.connect client_env (Addr.make 0 4000) in
             Sb_stream.send conn "one";
             Sb_stream.send conn "two";
             let first = Sb_stream.recv conn in
             let second = Sb_stream.recv conn in
             got := [ first; second ];
             Sb_stream.close conn));
      ignore (Engine.run ~until:300.0 eng);
      Alcotest.(check (list string)) "echoed in order" [ "echo:one"; "echo:two" ] !got)

let test_stream_ordering_under_jitter () =
  (* planetlab links jitter per message; the stream layer must still
     deliver in sequence *)
  let eng = Engine.create ~seed:61 () in
  let tb = Testbed.planetlab ~n:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server_env = Env.create net ~me:(Addr.make 0 2000) in
  let client_env = Env.create net ~me:(Addr.make 1 2000) in
  let received = ref [] in
  Sb_stream.listen server_env ~port:4000 ~on_accept:(fun conn ->
      let rec loop () =
        match Sb_stream.recv_timeout conn 30.0 with
        | Some msg ->
            received := msg :: !received;
            loop ()
        | None -> ()
      in
      loop ());
  ignore
    (Engine.spawn eng (fun () ->
         let conn = Sb_stream.connect client_env (Addr.make 0 4000) in
         for i = 1 to 50 do
           Sb_stream.send conn (string_of_int i)
         done;
         Engine.sleep 30.0;
         Sb_stream.close conn));
  ignore (Engine.run ~until:300.0 eng);
  Alcotest.(check (list string)) "all 50 in order"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    (List.rev !received)

let test_stream_connect_refused () =
  with_cluster (fun eng net ->
      let client_env = mk_env net 1 in
      let outcome = ref "" in
      ignore
        (Engine.spawn eng (fun () ->
             match Sb_stream.connect client_env ~timeout:3.0 (Addr.make 0 4000) with
             | _ -> outcome := "connected"
             | exception Sb_stream.Stream_error _ -> outcome := "refused"));
      ignore (Engine.run ~until:60.0 eng);
      (* nothing listens on host 0 at all: the SYN lands on an unbound port
         and the handshake times out *)
      Alcotest.(check string) "refused or timed out" "refused" !outcome)

let test_stream_close_semantics () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let server_saw_eof = ref false in
      Sb_stream.listen server_env ~port:4000 ~on_accept:(fun conn ->
          match Sb_stream.recv_timeout conn 30.0 with
          | Some _ -> Alcotest.fail "no data was sent"
          | None -> server_saw_eof := true);
      ignore
        (Engine.spawn eng (fun () ->
             let conn = Sb_stream.connect client_env (Addr.make 0 4000) in
             Engine.sleep 1.0;
             Sb_stream.close conn;
             Alcotest.(check bool) "closed locally" false (Sb_stream.is_open conn);
             (match Sb_stream.send conn "late" with
             | () -> Alcotest.fail "send on closed connection succeeded"
             | exception Sb_stream.Stream_error _ -> ())));
      ignore (Engine.run ~until:120.0 eng);
      Alcotest.(check bool) "server saw the FIN" true !server_saw_eof)

let test_stream_counts_sockets () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env =
        Env.create net ~me:(Addr.make 1 2000)
          ~limits:{ Sandbox.unlimited with max_sockets = 3 }
      in
      Sb_stream.listen server_env ~port:4000 ~on_accept:(fun _ -> ());
      let opened = ref 0 and refused = ref 0 in
      ignore
        (Engine.spawn eng (fun () ->
             (* dispatcher socket takes one slot; conns take the rest *)
             for _ = 1 to 4 do
               match Sb_stream.connect client_env ~timeout:3.0 (Addr.make 0 4000) with
               | _ -> incr opened
               | exception Sb_stream.Stream_error _ -> incr refused
             done));
      ignore (Engine.run ~until:120.0 eng);
      Alcotest.(check int) "cap respected" 2 !opened;
      Alcotest.(check int) "rest refused" 2 !refused)

let test_stream_framing_with_codec () =
  (* llenc-over-stream: frame several messages into one byte string, push
     it through a connection in arbitrary chunks, unframe at the other
     side *)
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let decoded = ref [] in
      Sb_stream.listen server_env ~port:4000 ~on_accept:(fun conn ->
          let buf = Buffer.create 64 in
          let rec loop () =
            match Sb_stream.recv_timeout conn 30.0 with
            | Some chunk ->
                Buffer.add_string buf chunk;
                let rec extract pos =
                  match Codec.unframe (Buffer.contents buf) ~pos with
                  | Some (payload, next) ->
                      decoded := Codec.decode payload :: !decoded;
                      extract next
                  | None -> pos
                in
                let consumed = extract 0 in
                let rest = String.sub (Buffer.contents buf) consumed (Buffer.length buf - consumed) in
                Buffer.clear buf;
                Buffer.add_string buf rest;
                loop ()
            | None -> ()
          in
          loop ());
      ignore
        (Engine.spawn eng (fun () ->
             let conn = Sb_stream.connect client_env (Addr.make 0 4000) in
             let frames =
               String.concat ""
                 [
                   Codec.frame (Codec.encode (Codec.Int 1));
                   Codec.frame (Codec.encode (Codec.String "hello"));
                   Codec.frame (Codec.encode (Codec.List [ Codec.Bool true ]));
                 ]
             in
             (* deliberately split at awkward boundaries *)
             let third = String.length frames / 3 in
             Sb_stream.send conn (String.sub frames 0 third);
             Sb_stream.send conn (String.sub frames third third);
             Sb_stream.send conn
               (String.sub frames (2 * third) (String.length frames - (2 * third)));
             Engine.sleep 5.0;
             Sb_stream.close conn));
      ignore (Engine.run ~until:120.0 eng);
      Alcotest.(check int) "three values decoded" 3 (List.length !decoded);
      match List.rev !decoded with
      | [ Codec.Int 1; Codec.String "hello"; Codec.List [ Codec.Bool true ] ] -> ()
      | _ -> Alcotest.fail "decoded values mismatch")

let () =
  Alcotest.run "splay_runtime"
    [
      ( "misc",
        [
          Alcotest.test_case "between basic" `Quick test_between_basic;
          Alcotest.test_case "between wrap" `Quick test_between_wrap;
          Alcotest.test_case "between inclusive" `Quick test_between_incl;
          Alcotest.test_case "between negative" `Quick test_between_negative_normalization;
          Alcotest.test_case "ring ops" `Quick test_ring_ops;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "sha1 block boundaries" `Quick test_sha1_block_boundaries;
          Alcotest.test_case "sha1 allocation" `Quick test_sha1_allocation;
          Alcotest.test_case "hash_to_id range" `Quick test_hash_to_id_range;
          Alcotest.test_case "hash_to_id deterministic" `Quick test_hash_to_id_deterministic;
        ] );
      ( "codec",
        [
          Alcotest.test_case "examples" `Quick test_codec_examples;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "accessors" `Quick test_codec_accessors;
          Alcotest.test_case "framing" `Quick test_framing;
        ] );
      ( "sandbox",
        [
          Alcotest.test_case "memory kill" `Quick test_sandbox_memory_kill;
          Alcotest.test_case "fs quota nonfatal" `Quick test_sandbox_fs_quota_nonfatal;
          Alcotest.test_case "sockets" `Quick test_sandbox_sockets;
          Alcotest.test_case "restrict" `Quick test_sandbox_restrict;
          Alcotest.test_case "blacklist" `Quick test_sandbox_blacklist;
          Alcotest.test_case "memory kill traced" `Quick test_sandbox_memory_kill_traced;
          Alcotest.test_case "socket denial traced" `Quick test_sandbox_socket_denial_traced;
          Alcotest.test_case "fs quota traced" `Quick test_sandbox_fs_quota_traced;
          Alcotest.test_case "squeeze traced" `Quick test_sandbox_squeeze_traced;
        ] );
      ( "sb_fs",
        [
          Alcotest.test_case "write read" `Quick test_fs_write_read;
          Alcotest.test_case "quota" `Quick test_fs_quota;
          Alcotest.test_case "truncate and remove" `Quick test_fs_truncate_and_remove;
          Alcotest.test_case "missing read" `Quick test_fs_missing_read;
          Alcotest.test_case "isolation" `Quick test_fs_isolation;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "fifo" `Quick test_lock_fifo;
          Alcotest.test_case "released on kill" `Quick test_lock_released_on_kill;
          Alcotest.test_case "kill while parked" `Quick test_lock_kill_while_parked;
          Alcotest.test_case "kill and unlock in one event" `Quick
            test_lock_kill_and_unlock_same_event;
          Alcotest.test_case "unlock and kill in one event" `Quick
            test_lock_unlock_then_kill_same_event;
          Alcotest.test_case "try_lock" `Quick test_try_lock;
        ] );
      ( "env",
        [
          Alcotest.test_case "stop kills everything" `Quick test_env_stop_kills_everything;
          Alcotest.test_case "stop idempotent" `Quick test_env_stop_idempotent;
          Alcotest.test_case "self stop" `Quick test_env_self_stop;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "basic call" `Quick test_rpc_basic_call;
          Alcotest.test_case "latency realistic" `Quick test_rpc_latency_realistic;
          Alcotest.test_case "timeout on dead host" `Quick test_rpc_timeout_on_dead_host;
          Alcotest.test_case "remote error" `Quick test_rpc_remote_error;
          Alcotest.test_case "unknown proc" `Quick test_rpc_unknown_proc;
          Alcotest.test_case "ping" `Quick test_rpc_ping;
          Alcotest.test_case "blocking handler" `Quick test_rpc_blocking_handler;
          Alcotest.test_case "blacklist" `Quick test_rpc_blacklist;
          Alcotest.test_case "concurrent calls" `Quick test_rpc_concurrent_calls;
          Alcotest.test_case "re-registration last wins" `Quick test_rpc_reregistration_last_wins;
          Alcotest.test_case "notify one-way" `Quick test_rpc_notify_one_way;
          Alcotest.test_case "untyped handler serves typed calls" `Quick test_rpc_untyped_handler;
          Alcotest.test_case "footprint per queued notify" `Quick test_notify_footprint;
          Alcotest.test_case "footprint per parked caller" `Quick test_parked_caller_footprint;
          Alcotest.test_case "footprint per parked callee" `Quick test_parked_callee_footprint;
          Alcotest.test_case "minor words per round trip" `Quick test_roundtrip_minor_words;
          Alcotest.test_case "kill while parked" `Quick test_rpc_kill_while_parked;
          Alcotest.test_case "loss forces timeout" `Quick test_message_loss_forces_timeout;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels and memory" `Quick test_log_levels_and_memory;
          Alcotest.test_case "forward sink" `Quick test_log_forward_sink;
        ] );
      ( "events",
        [
          Alcotest.test_case "aliases" `Quick test_events_aliases;
          Alcotest.test_case "misc helpers" `Quick test_misc_take_and_duration;
          Alcotest.test_case "encoded size" `Quick test_codec_encoded_size;
        ] );
      ( "sb_stream",
        [
          Alcotest.test_case "echo" `Quick test_stream_echo;
          Alcotest.test_case "ordering under jitter" `Quick test_stream_ordering_under_jitter;
          Alcotest.test_case "connect refused" `Quick test_stream_connect_refused;
          Alcotest.test_case "close semantics" `Quick test_stream_close_semantics;
          Alcotest.test_case "socket accounting" `Quick test_stream_counts_sockets;
          Alcotest.test_case "llenc framing over stream" `Quick test_stream_framing_with_codec;
        ] );
      ("properties", qsuite);
    ]
