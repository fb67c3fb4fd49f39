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
  let sb = Sandbox.create ~limits:{ Sandbox.default with max_memory = 1000 } () in
  Sandbox.set_on_kill sb (fun m -> killed := Some m);
  Sandbox.alloc sb 900;
  Alcotest.(check int) "used" 900 (Sandbox.memory_used sb);
  (try Sandbox.alloc sb 200 with Sandbox.Violation _ -> ());
  Alcotest.(check bool) "kill callback fired" true (!killed <> None)

let test_sandbox_fs_quota_nonfatal () =
  let killed = ref false in
  let sb = Sandbox.create ~limits:{ Sandbox.default with max_fs_bytes = 100 } () in
  Sandbox.set_on_kill sb (fun _ -> killed := true);
  Sandbox.fs_grow sb 90;
  (try Sandbox.fs_grow sb 20 with Sandbox.Violation _ -> ());
  Alcotest.(check bool) "disk violation is not fatal" false !killed;
  Alcotest.(check int) "usage unchanged by failed op" 90 (Sandbox.fs_used sb)

let test_sandbox_sockets () =
  let sb = Sandbox.create ~limits:{ Sandbox.default with max_sockets = 2 } () in
  Sandbox.socket_opened sb;
  Sandbox.socket_opened sb;
  Alcotest.check_raises "cap" (Sandbox.Violation "socket limit reached (2)") (fun () ->
      Sandbox.socket_opened sb);
  Sandbox.socket_closed sb;
  Sandbox.socket_opened sb;
  Alcotest.(check int) "open count" 2 (Sandbox.sockets_open sb)

let test_sandbox_restrict () =
  let admin = { Sandbox.default with max_memory = 1000; max_sockets = 10 } in
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
  Splay_obs.Obs.reset ();
  Splay_obs.Obs.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Splay_obs.Obs.enabled := false;
      Splay_obs.Obs.reset ())
    (fun () ->
      f ();
      Splay_obs.Obs.trace_jsonl ())

let test_sandbox_memory_kill_traced () =
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create ~limits:{ Sandbox.default with max_memory = 1000 } () in
        try Sandbox.alloc sb 2000 with Sandbox.Violation _ -> ())
  in
  Alcotest.(check bool) "violation event" true (string_contains trace "sandbox.violation");
  Alcotest.(check bool) "fatal" true (string_contains trace "\"fatal\":\"true\"");
  Alcotest.(check bool) "reason names memory" true (string_contains trace "memory")

let test_sandbox_socket_denial_traced () =
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create ~limits:{ Sandbox.default with max_sockets = 1 } () in
        Sandbox.socket_opened sb;
        try Sandbox.socket_opened sb with Sandbox.Violation _ -> ())
  in
  Alcotest.(check bool) "violation event" true (string_contains trace "sandbox.violation");
  Alcotest.(check bool) "nonfatal" true (string_contains trace "\"fatal\":\"false\"");
  Alcotest.(check bool) "reason names sockets" true (string_contains trace "socket")

let test_sandbox_fs_quota_traced () =
  let trace =
    with_obs_trace (fun () ->
        let sb = Sandbox.create ~limits:{ Sandbox.default with max_fs_bytes = 100 } () in
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
          ~limits:{ Sandbox.default with max_fs_bytes = 10 }
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
      Rpc.server server_env
        [
          ("add", fun args -> Codec.Int (List.fold_left (fun a v -> a + Codec.to_int v) 0 args));
          ("echo", fun args -> Codec.List args);
        ];
      let got = ref 0 in
      ignore
        (Env.thread client_env (fun () ->
             got := Codec.to_int (Rpc.call client_env server_env.Env.me "add" [ Codec.Int 19; Codec.Int 23 ])));
      ignore (Engine.run eng);
      Alcotest.(check int) "rpc result" 42 !got)

let test_rpc_latency_realistic () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [ ("noop", fun _ -> Codec.Null) ];
      let elapsed = ref 0.0 in
      ignore
        (Env.thread client_env (fun () ->
             let t0 = Engine.now eng in
             ignore (Rpc.call client_env server_env.Env.me "noop" []);
             elapsed := Engine.now eng -. t0));
      ignore (Engine.run eng);
      (* cluster RTT ~0.1ms plus processing: strictly positive, under 10ms *)
      Alcotest.(check bool) "took network time" true (!elapsed > 0.0 && !elapsed < 0.01))

let test_rpc_timeout_on_dead_host () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [ ("noop", fun _ -> Codec.Null) ];
      Net.set_host_up net 0 false;
      let result = ref (Ok Codec.Null) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.a_call client_env server_env.Env.me ~timeout:2.0 "noop" []));
      ignore (Engine.run eng);
      (match !result with
      | Error Rpc.Timeout -> ()
      | _ -> Alcotest.fail "expected timeout");
      Alcotest.(check bool) "timed out at deadline" true (Engine.now eng >= 2.0))

let test_rpc_remote_error () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [ ("boom", fun _ -> failwith "kaboom") ];
      let result = ref (Ok Codec.Null) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.a_call client_env server_env.Env.me "boom" []));
      ignore (Engine.run eng);
      match !result with
      | Error (Rpc.Remote msg) ->
          Alcotest.(check bool) "message mentions cause" true (string_contains msg "kaboom")
      | _ -> Alcotest.fail "expected remote error")

let test_rpc_unknown_proc () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [];
      let result = ref (Ok Codec.Null) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.a_call client_env server_env.Env.me "nope" []));
      ignore (Engine.run eng);
      match !result with
      | Error (Rpc.Remote _) -> ()
      | _ -> Alcotest.fail "expected unknown-procedure error")

let test_rpc_ping () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [];
      let up = ref false and down = ref true in
      ignore
        (Env.thread client_env (fun () ->
             up := Rpc.ping client_env server_env.Env.me;
             Net.set_host_up net 0 false;
             down := Rpc.ping client_env ~timeout:1.0 server_env.Env.me));
      ignore (Engine.run eng);
      Alcotest.(check bool) "alive host pings" true !up;
      Alcotest.(check bool) "dead host does not" false !down)

let test_rpc_blocking_handler () =
  (* a handler that itself issues an RPC: recursive routing must not deadlock *)
  with_cluster (fun eng net ->
      let a = mk_env net 0 and b = mk_env net 1 and c = mk_env net 2 in
      Rpc.server c [ ("leaf", fun _ -> Codec.String "from-c") ];
      Rpc.server b
        [
          ( "via",
            fun _ ->
              let v = Rpc.call b c.Env.me "leaf" [] in
              Codec.String ("b+" ^ Codec.to_string v) );
        ];
      let got = ref "" in
      ignore
        (Env.thread a (fun () -> got := Codec.to_string (Rpc.call a b.Env.me "via" [])));
      ignore (Engine.run eng);
      Alcotest.(check string) "chained" "b+from-c" !got)

let test_rpc_blacklist () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [];
      Sandbox.blacklist client_env.Env.sandbox 0;
      let result = ref (Ok Codec.Null) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.a_call client_env server_env.Env.me "x" []));
      ignore (Engine.run eng);
      match !result with
      | Error (Rpc.Network _) -> ()
      | _ -> Alcotest.fail "expected local network refusal")

let test_rpc_concurrent_calls () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env
        [
          ( "slowid",
            fun args ->
              Engine.sleep 1.0;
              List.hd args );
        ];
      let results = ref [] in
      for i = 1 to 4 do
        ignore
          (Env.thread client_env (fun () ->
               let v = Rpc.call client_env server_env.Env.me "slowid" [ Codec.Int i ] in
               results := Codec.to_int v :: !results))
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
      Rpc.server server_env [ ("ver", fun _ -> Codec.Int 1) ];
      (* re-registering the same procedure replaces the handler: the later
         binding wins and the older one is gone, not shadowed *)
      Rpc.server server_env [ ("ver", fun _ -> Codec.Int 2) ];
      Rpc.add_handler server_env "ver" (fun _ -> Codec.Int 3);
      let got = ref 0 in
      ignore
        (Env.thread client_env (fun () ->
             got := Codec.to_int (Rpc.call client_env server_env.Env.me "ver" [])));
      ignore (Engine.run eng);
      Alcotest.(check int) "last registration wins" 3 !got;
      Alcotest.(check int) "single binding, not a shadow stack" 1
        (List.length (Hashtbl.find_all (Env.rpc_handlers server_env) "ver")))

let test_rpc_notify_one_way () =
  with_cluster (fun eng net ->
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      let got = ref [] in
      Rpc.server server_env
        [
          ( "event",
            fun args ->
              got := Codec.to_int (List.hd args) :: !got;
              Codec.Null );
        ];
      let sent_before = Net.messages_sent net in
      ignore
        (Env.thread client_env (fun () ->
             Rpc.notify client_env server_env.Env.me "event" [ Codec.Int 1 ];
             Rpc.notify client_env server_env.Env.me "event" [ Codec.Int 2 ]));
      ignore (Engine.run eng);
      Alcotest.(check (list int)) "both delivered in order" [ 1; 2 ] (List.rev !got);
      (* fire-and-forget: two requests on the wire and nothing coming back *)
      Alcotest.(check int) "no reply traffic" 2 (Net.messages_sent net - sent_before);
      (* a notify to an unbound/unknown destination is silently dropped *)
      ignore
        (Env.thread client_env (fun () ->
             Rpc.notify client_env (Addr.make 3 2000) "event" [ Codec.Int 9 ]));
      ignore (Engine.run eng);
      Alcotest.(check (list int)) "drop left state untouched" [ 1; 2 ] (List.rev !got))

let test_message_loss_forces_timeout () =
  with_cluster (fun eng net ->
      Net.set_loss net 1.0;
      let server_env = mk_env net 0 in
      let client_env = mk_env net 1 in
      Rpc.server server_env [ ("noop", fun _ -> Codec.Null) ];
      let result = ref (Ok Codec.Null) in
      ignore
        (Env.thread client_env (fun () ->
             result := Rpc.a_call client_env server_env.Env.me ~timeout:1.0 "noop" []));
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

(* {2 Events (paper-named aliases)} *)

let test_events_aliases () =
  with_cluster (fun eng net ->
      let env = mk_env net 0 in
      let ticks = ref 0 and ran = ref false in
      ignore (Events.thread env (fun () -> ran := true));
      ignore (Events.periodic env (fun () -> incr ticks) 2.0);
      ignore
        (Engine.spawn eng (fun () ->
             Events.sleep 7.0;
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
  check_sz "float fraction" (Codec.Float 0.1)

(* The structural-recursion [encoded_size] must agree with the writer for
   every value shape — it is used to charge network byte costs, so a drift
   would silently skew every simulated message size. *)
let prop_encoded_size =
  QCheck.Test.make ~name:"encoded_size v = length (encode v)" ~count:500
    (QCheck.make ~print:(fun v -> Codec.encode v) value_gen)
    (fun v -> Codec.encoded_size v = String.length (Codec.encode v))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_between_exclusive_split;
      prop_codec_roundtrip;
      prop_framing_roundtrip;
      prop_encoded_size;
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
          ~limits:{ Sandbox.default with max_sockets = 3 }
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
