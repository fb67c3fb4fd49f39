module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Chord = Splay_apps.Chord
module Node = Splay_apps.Node

(* Built-in deployable applications.

   Every observation an invariant check needs is emitted as a structured
   "REPORT ..." log line through the instance's ordinary logger: in
   simulation a [Log.Forward] sink collects them in-process, live they
   stream to the controller as [Logline] frames — the same app code
   produces the same evidence in both worlds, which is what lets
   [Contract.diff] compare the two runs (ring successorship, lookup
   answers, message counts). *)

(* Warm-started Chord ring over the deployment membership. Instance ids
   are position-deterministic ([slot * 2^m / n]), identical under both
   backends, so ring structure and lookup answers are exactly
   comparable. The lowest-position instance drives [lookups] seeded
   lookups after a readiness barrier (every peer answers a ping — live
   daemons start within milliseconds of each other, but not atomically). *)
let chord ~params env =
  let m = Registry.param_int params "m" 16 in
  let lookups = Registry.param_int params "lookups" 0 in
  let seed = Registry.param_int params "seed" 42 in
  let nodes = env.Env.nodes in
  let n = List.length nodes in
  if n = 0 then Log.error (Env.log env) "chord: empty membership"
  else begin
    let md = 1 lsl m in
    let spacing = max 1 (md / n) in
    let arr = Array.of_list nodes in
    let ring = Array.mapi (fun i a -> Node.make ~id:(i * spacing) ~addr:a) arr in
    let index = ref (-1) in
    Array.iteri (fun i a -> if Addr.equal a env.Env.me then index := i) arr;
    if !index < 0 then
      Log.error (Env.log env) "chord: %s not in membership" (Addr.to_string env.Env.me)
    else begin
      let index = !index in
      let self = ref None in
      Chord.assemble
        ~config:{ Chord.default_config with Chord.m }
        ~register:(fun c -> self := Some c)
        ~ring ~index env;
      match !self with
      | None -> Log.error (Env.log env) "chord: assemble did not register"
      | Some c ->
          let sid = Chord.id c in
          let succ = match Chord.successor c with Some s -> s.Node.id | None -> sid in
          let pred = match Chord.predecessor c with Some p -> p.Node.id | None -> sid in
          Log.info (Env.log env) "REPORT ring id=%d succ=%d pred=%d" sid succ pred;
          if index = 0 && lookups > 0 then
            ignore
              (Env.thread env ~name:"chord-driver" (fun () ->
                   Array.iter
                     (fun a ->
                       if not (Addr.equal a env.Env.me) then begin
                         let tries = ref 0 in
                         while (not (Rpc.ping env ~timeout:0.5 Rpc.p_ping a)) && !tries < 100 do
                           incr tries;
                           Engine.sleep 0.1
                         done
                       end)
                     arr;
                   let rng = Rng.create seed in
                   let ok = ref 0 in
                   for _ = 1 to lookups do
                     let key = Rng.int rng md in
                     match Chord.lookup c key with
                     | Some (owner, hops) ->
                         incr ok;
                         Log.info (Env.log env) "REPORT lookup key=%d owner=%d hops=%d" key
                           owner.Node.id hops
                     | None -> Log.warn (Env.log env) "REPORT lookup key=%d failed" key
                   done;
                   Log.info (Env.log env) "REPORT msgs calls=%d" (Rpc.calls_issued env);
                   Log.info (Env.log env) "REPORT done lookups=%d ok=%d" lookups !ok))
    end
  end

let registered =
  lazy
    (Registry.register "chord" chord)

let init () = Lazy.force registered
