open Ltc_util

let check_float = Alcotest.(check (float 1e-12))

(* Every test arms its own plan and must leave the injector disarmed and
   the clock real, even on failure. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.Clock.clear ())
    f

(* -------------------------------------------------------------- probes *)

let test_disarmed_probes_free () =
  Fault.disarm ();
  Fault.check "anywhere";
  Alcotest.(check (option int)) "check_write passes" None
    (Fault.check_write "anywhere" ~len:64);
  Alcotest.(check int) "no counting while disarmed" 0 (Fault.hits "anywhere")

let test_crash_fires_once_at_exact_hit () =
  Fault.arm [ { Fault.site = "s"; hit = 3; action = Fault.Crash } ];
  Fault.check "s";
  Fault.check "s";
  (match Fault.check "s" with
  | () -> Alcotest.fail "hit 3 should have crashed"
  | exception Fault.Injected_crash { site; hit } ->
    Alcotest.(check string) "site" "s" site;
    Alcotest.(check int) "hit" 3 hit);
  (* One-shot: the counter keeps running but the fault never refires. *)
  Fault.check "s";
  Alcotest.(check int) "hits keep counting" 4 (Fault.hits "s");
  Alcotest.(check int) "fired once" 1 (Fault.stats ()).Fault.crashes

let test_io_error_is_transient () =
  Fault.arm [ { Fault.site = "io"; hit = 1; action = Fault.Io_error } ];
  (match Fault.check "io" with
  | () -> Alcotest.fail "hit 1 should have raised Injected_io"
  | exception (Fault.Injected_io _ as e) ->
    Alcotest.(check bool) "transient" true (Fault.Retry.is_transient e));
  Alcotest.(check bool) "crash is not transient" false
    (Fault.Retry.is_transient (Fault.Injected_crash { site = "x"; hit = 1 }));
  Alcotest.(check bool) "EINTR is transient" true
    (Fault.Retry.is_transient (Unix.Unix_error (Unix.EINTR, "write", "")));
  Alcotest.(check bool) "ENOENT is not" false
    (Fault.Retry.is_transient (Unix.Unix_error (Unix.ENOENT, "open", "")))

let test_torn_write_strict_prefix () =
  Fault.arm [ { Fault.site = "w"; hit = 2; action = Fault.Torn_write 23 } ];
  Alcotest.(check (option int)) "hit 1 clean" None
    (Fault.check_write "w" ~len:100);
  Alcotest.(check (option int)) "hit 2 torn at 23" (Some 23)
    (Fault.check_write "w" ~len:100);
  Alcotest.(check int) "counted" 1 (Fault.stats ()).Fault.torn_writes;
  (* A torn length >= the payload is clamped to a strict prefix. *)
  Fault.arm [ { Fault.site = "w"; hit = 1; action = Fault.Torn_write 99 } ];
  Alcotest.(check (option int)) "clamped below len" (Some 9)
    (Fault.check_write "w" ~len:10)

let test_torn_write_inert_at_plain_site () =
  Fault.arm [ { Fault.site = "p"; hit = 1; action = Fault.Torn_write 5 } ];
  (* A plain probe cannot honour a torn write; it must pass through
     without firing the fault (and without crashing). *)
  Fault.check "p";
  Fault.check "p";
  Alcotest.(check int) "never fires" 0 (Fault.stats ()).Fault.torn_writes

let test_delay_advances_virtual_clock () =
  Fault.arm [ { Fault.site = "d"; hit = 2; action = Fault.Delay 0.75 } ];
  Fault.Clock.set_virtual 10.0;
  Fault.check "d";
  check_float "hit 1 leaves time alone" 10.0 (Fault.Clock.now_s ());
  Fault.check "d";
  check_float "hit 2 advances by the delay" 10.75 (Fault.Clock.now_s ());
  Alcotest.(check int) "counted" 1 (Fault.stats ()).Fault.delays

(* --------------------------------------------------------------- clock *)

let test_clock_virtual_semantics () =
  Fault.Clock.set_virtual 3.0;
  Alcotest.(check bool) "virtual" true (Fault.Clock.is_virtual ());
  check_float "reads the set value" 3.0 (Fault.Clock.now_s ());
  Fault.Clock.advance 1.5;
  check_float "advance accumulates" 4.5 (Fault.Clock.now_s ());
  Fault.sleep 0.5;
  check_float "virtual sleep advances" 5.0 (Fault.Clock.now_s ());
  Alcotest.check_raises "negative advance rejected"
    (Invalid_argument "Fault.Clock.advance: negative amount") (fun () ->
      Fault.Clock.advance (-0.1));
  Fault.Clock.clear ();
  Alcotest.(check bool) "real again" false (Fault.Clock.is_virtual ());
  let wall = Unix.gettimeofday () in
  Alcotest.(check bool) "real clock within 60s of gettimeofday" true
    (Float.abs (Fault.Clock.now_s () -. wall) < 60.0)

(* --------------------------------------------------------------- retry *)

let test_backoff_schedule_pinned () =
  Alcotest.(check int) "attempts" 5 Fault.Retry.attempts;
  List.iteri
    (fun i expected ->
      check_float
        (Printf.sprintf "backoff before retry %d" (i + 1))
        expected
        (Fault.Retry.backoff_s (i + 1)))
    [ 0.001; 0.002; 0.004; 0.008; 0.016; 0.016; 0.016 ]

let test_with_backoff_retries_then_succeeds () =
  Fault.Clock.set_virtual 0.0;
  let failures = ref 2 in
  let retried = ref [] in
  let v =
    Fault.Retry.with_backoff
      ~on_retry:(fun ~attempt _ -> retried := attempt :: !retried)
      (fun () ->
        if !failures > 0 then begin
          decr failures;
          raise (Fault.Injected_io { site = "t"; hit = 0 })
        end;
        42)
  in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check (list int)) "on_retry per failed attempt" [ 1; 2 ]
    (List.rev !retried);
  (* Two virtual back-off sleeps: 1 ms + 2 ms — deterministic. *)
  check_float "virtual time consumed" 0.003 (Fault.Clock.now_s ())

let test_with_backoff_exhausts_and_reraises () =
  Fault.Clock.set_virtual 0.0;
  let calls = ref 0 in
  (match
     Fault.Retry.with_backoff (fun () ->
         incr calls;
         raise (Fault.Injected_io { site = "t"; hit = !calls }))
   with
  | (_ : int) -> Alcotest.fail "should exhaust"
  | exception Fault.Injected_io { hit; _ } ->
    Alcotest.(check int) "last failure propagates" 5 hit);
  Alcotest.(check int) "exactly attempts tries" 5 !calls;
  check_float "slept the full pinned schedule" 0.015 (Fault.Clock.now_s ())

let test_with_backoff_nontransient_immediate () =
  let calls = ref 0 in
  Alcotest.check_raises "non-transient propagates unretried"
    (Failure "boom") (fun () ->
      Fault.Retry.with_backoff (fun () ->
          incr calls;
          failwith "boom"));
  Alcotest.(check int) "single try" 1 !calls

(* ---------------------------------------------------------------- plan *)

let sites = [ "a"; "b" ]
let write_sites = [ "w" ]
let delay_sites = [ "d" ]

let make_plan seed =
  Fault.plan ~crashes:3 ~io_errors:2 ~torn_writes:2 ~delays:2 ~horizon:40
    ~seed ~sites ~write_sites ~delay_sites ()

let test_plan_deterministic () =
  Alcotest.(check bool) "same seed, same plan" true
    (make_plan 11 = make_plan 11);
  Alcotest.(check bool) "different seed, different plan" false
    (make_plan 11 = make_plan 12)

let test_plan_shape () =
  let p = make_plan 11 in
  Alcotest.(check int) "size" 9 (List.length p);
  let slots =
    List.map (fun (f : Fault.fault) -> (f.Fault.site, f.Fault.hit)) p
  in
  Alcotest.(check int) "distinct (site, hit) slots" (List.length p)
    (List.length (List.sort_uniq compare slots));
  List.iter
    (fun (f : Fault.fault) ->
      Alcotest.(check bool) "hit in horizon" true
        (f.Fault.hit >= 1 && f.Fault.hit <= 40);
      match f.Fault.action with
      | Fault.Crash | Fault.Io_error ->
        Alcotest.(check bool) "crash/io over plain+write sites" true
          (List.mem f.Fault.site (sites @ write_sites))
      | Fault.Torn_write n ->
        Alcotest.(check bool) "torn only at write sites" true
          (List.mem f.Fault.site write_sites);
        Alcotest.(check bool) "torn length bounded" true (n >= 0 && n < 80)
      | Fault.Delay s ->
        Alcotest.(check bool) "delay only at delay sites" true
          (List.mem f.Fault.site delay_sites);
        check_float "default delay" 0.25 s)
    p;
  let counts pred = List.length (List.filter pred p) in
  Alcotest.(check int) "crashes" 3
    (counts (fun f -> f.Fault.action = Fault.Crash));
  Alcotest.(check int) "io errors" 2
    (counts (fun f -> f.Fault.action = Fault.Io_error));
  Alcotest.(check int) "torn writes" 2
    (counts (fun f ->
         match f.Fault.action with Fault.Torn_write _ -> true | _ -> false));
  Alcotest.(check int) "delays" 2
    (counts (fun f ->
         match f.Fault.action with Fault.Delay _ -> true | _ -> false))

let test_plan_empty_pools () =
  let p =
    Fault.plan ~crashes:2 ~torn_writes:2 ~delays:2 ~seed:5 ~sites:[ "a" ]
      ~write_sites:[] ~delay_sites:[] ()
  in
  Alcotest.(check int) "only the crash class materialises" 2 (List.length p);
  List.iter
    (fun (f : Fault.fault) ->
      Alcotest.(check bool) "all crashes" true (f.Fault.action = Fault.Crash))
    p

(* A negative count is refused by name instead of failing inside
   [List.init]; zero stays a valid "none of this class". *)
let test_plan_negative_counts () =
  let refuses name plan =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Fault.plan: %s must be >= 0 (got -1)" name))
      (fun () -> ignore (plan ()))
  in
  let plan = Fault.plan ~seed:5 ~sites ~write_sites ~delay_sites in
  refuses "crashes" (plan ~crashes:(-1));
  refuses "io_errors" (plan ~io_errors:(-1));
  refuses "torn_writes" (plan ~torn_writes:(-1));
  refuses "delays" (plan ~delays:(-1));
  Alcotest.(check int) "zero counts give an empty plan" 0
    (List.length (plan ~crashes:0 ~io_errors:0 ~torn_writes:0 ~delays:0 ()))

(* -------------------------------------------------------------- scopes *)

let test_scope_resolution () =
  Fault.arm
    [
      { Fault.site = "shard0/s"; hit = 1; action = Fault.Crash };
      { Fault.site = "s"; hit = 1; action = Fault.Io_error };
    ];
  (* outside any scope the bare site fires, not the scoped one *)
  (match Fault.check "s" with
  | () -> Alcotest.fail "bare site should have fired Io_error"
  | exception Fault.Injected_io { site; _ } ->
    Alcotest.(check string) "bare site" "s" site);
  Alcotest.(check (option string)) "no ambient scope" None
    (Fault.current_scope ());
  (* under a scope the same probe resolves to the scoped counter *)
  (match
     Fault.with_scope "shard0" (fun () ->
         Alcotest.(check (option string)) "scope visible" (Some "shard0")
           (Fault.current_scope ());
         Fault.check "s")
   with
  | () -> Alcotest.fail "scoped site should have crashed"
  | exception Fault.Injected_crash { site; hit } ->
    Alcotest.(check string) "scoped site" "shard0/s" site;
    Alcotest.(check int) "scoped hit" 1 hit);
  Alcotest.(check string) "scope_site spelling" "shard0/s"
    (Fault.scope_site ~scope:"shard0" "s");
  Alcotest.(check int) "bare counter untouched by scoped probes" 1
    (Fault.hits "s");
  (* [hits] resolves the ambient scope too *)
  Alcotest.(check int) "scoped counter via with_scope" 1
    (Fault.with_scope "shard0" (fun () -> Fault.hits "s"))

let test_scope_restored_on_exception () =
  Fault.disarm ();
  (try
     Fault.with_scope "outer" (fun () ->
         try Fault.with_scope "inner" (fun () -> failwith "boom")
         with Failure _ ->
           Alcotest.(check (option string)) "inner scope unwound"
             (Some "outer") (Fault.current_scope ());
           failwith "boom again")
   with Failure _ -> ());
  Alcotest.(check (option string)) "outer scope unwound" None
    (Fault.current_scope ())

(* Scoped counters are per (scope, site) pair, so concurrent domains each
   under their own scope never interleave hit counts: every domain sees
   its fault at exactly its scripted hit. *)
let test_scope_domain_isolation () =
  let domains = 4 and probes = 50 in
  Fault.arm
    (List.init domains (fun k ->
         {
           Fault.site = Fault.scope_site ~scope:(Printf.sprintf "d%d" k) "s";
           hit = 10 + k;
           action = Fault.Crash;
         }));
  let results =
    Array.init domains (fun k ->
        Domain.spawn (fun () ->
            Fault.with_scope (Printf.sprintf "d%d" k) (fun () ->
                let fired = ref None in
                for _ = 1 to probes do
                  try Fault.check "s"
                  with Fault.Injected_crash { hit; _ } -> fired := Some hit
                done;
                (!fired, Fault.hits "s"))))
    |> Array.map Domain.join
  in
  Array.iteri
    (fun k (fired, hits) ->
      Alcotest.(check (option int))
        (Printf.sprintf "domain %d crashed at its own scripted hit" k)
        (Some (10 + k)) fired;
      Alcotest.(check int)
        (Printf.sprintf "domain %d counted every probe" k)
        probes hits)
    results;
  Alcotest.(check int) "all crashes fired" domains (Fault.stats ()).Fault.crashes

let test_rearm_resets_state () =
  Fault.arm [ { Fault.site = "s"; hit = 1; action = Fault.Io_error } ];
  (try Fault.check "s" with Fault.Injected_io _ -> ());
  Alcotest.(check int) "fired" 1 (Fault.stats ()).Fault.io_errors;
  Fault.arm [];
  Alcotest.(check int) "stats reset" 0 (Fault.stats ()).Fault.io_errors;
  Alcotest.(check int) "counters reset" 0 (Fault.hits "s");
  Fault.check "s";
  Alcotest.(check int) "empty plan still counts" 1 (Fault.hits "s")

let suite =
  [
    ( "fault.probes",
      [
        Alcotest.test_case "disarmed probes are free" `Quick
          (isolated test_disarmed_probes_free);
        Alcotest.test_case "crash fires once at exact hit" `Quick
          (isolated test_crash_fires_once_at_exact_hit);
        Alcotest.test_case "io error is transient" `Quick
          (isolated test_io_error_is_transient);
        Alcotest.test_case "torn write strict prefix" `Quick
          (isolated test_torn_write_strict_prefix);
        Alcotest.test_case "torn write inert at plain site" `Quick
          (isolated test_torn_write_inert_at_plain_site);
        Alcotest.test_case "delay advances virtual clock" `Quick
          (isolated test_delay_advances_virtual_clock);
        Alcotest.test_case "rearm resets state" `Quick
          (isolated test_rearm_resets_state);
      ] );
    ( "fault.scopes",
      [
        Alcotest.test_case "resolution and spelling" `Quick
          (isolated test_scope_resolution);
        Alcotest.test_case "restored on exception" `Quick
          (isolated test_scope_restored_on_exception);
        Alcotest.test_case "per-domain isolation" `Quick
          (isolated test_scope_domain_isolation);
      ] );
    ( "fault.clock",
      [
        Alcotest.test_case "virtual semantics" `Quick
          (isolated test_clock_virtual_semantics);
      ] );
    ( "fault.retry",
      [
        Alcotest.test_case "backoff schedule pinned" `Quick
          (isolated test_backoff_schedule_pinned);
        Alcotest.test_case "retries then succeeds" `Quick
          (isolated test_with_backoff_retries_then_succeeds);
        Alcotest.test_case "exhausts and re-raises" `Quick
          (isolated test_with_backoff_exhausts_and_reraises);
        Alcotest.test_case "non-transient immediate" `Quick
          (isolated test_with_backoff_nontransient_immediate);
      ] );
    ( "fault.plan",
      [
        Alcotest.test_case "deterministic" `Quick (isolated test_plan_deterministic);
        Alcotest.test_case "shape and bounds" `Quick (isolated test_plan_shape);
        Alcotest.test_case "empty pools" `Quick (isolated test_plan_empty_pools);
        Alcotest.test_case "negative counts refused" `Quick
          (isolated test_plan_negative_counts);
      ] );
  ]
