(* Observability layer: Metrics registry, Trace spans, engine metrics and
   the pinned pp_outcome format.

   The registry and the trace ring are process-global, so every test that
   enables them restores the disabled default on the way out (the rest of
   the suite must keep running with free no-op instrumentation). *)

open Ltc_util

let with_obs ?(trace = false) f =
  Metrics.set_enabled true;
  if trace then begin
    Trace.clear ();
    Trace.set_enabled true
  end;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.set_enabled false)
    f

let contains ~affix s = Astring.String.is_infix ~affix s

(* -------------------------------------------------------------- counters *)

let test_counter_semantics () =
  let c = Metrics.counter "test_obs_counter" in
  with_obs (fun () ->
      Metrics.Counter.incr c;
      Metrics.Counter.incr c;
      Metrics.Counter.add c 40;
      Alcotest.(check int) "incr + add accumulate" 42 (Metrics.Counter.value c));
  Metrics.Counter.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 42 (Metrics.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative amount") (fun () ->
      Metrics.Counter.add c (-1));
  let c' = Metrics.counter "test_obs_counter" in
  with_obs (fun () -> Metrics.Counter.incr c');
  Alcotest.(check int) "re-registration returns the same instance" 43
    (Metrics.Counter.value c)

let test_gauge_semantics () =
  let g = Metrics.gauge "test_obs_gauge" in
  with_obs (fun () ->
      Metrics.Gauge.set g 2.5;
      Metrics.Gauge.add g 0.5;
      Alcotest.(check (float 1e-9)) "set + add" 3.0 (Metrics.Gauge.value g));
  Metrics.Gauge.set g 99.0;
  Alcotest.(check (float 1e-9)) "disabled set is a no-op" 3.0
    (Metrics.Gauge.value g)

let test_histogram_semantics () =
  let h =
    Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test_obs_histogram"
  in
  with_obs (fun () ->
      List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ]);
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 106.0 (Metrics.Histogram.sum h);
  (* Cumulative bucket counts appear in the snapshot: le=1 holds the two
     observations <= 1 (boundary inclusive), +Inf holds all five. *)
  let prom = Metrics.to_prometheus () in
  List.iter
    (fun affix ->
      Alcotest.(check bool) affix true (contains ~affix prom))
    [
      "test_obs_histogram_bucket{le=\"1\"} 2";
      "test_obs_histogram_bucket{le=\"2\"} 3";
      "test_obs_histogram_bucket{le=\"4\"} 4";
      "test_obs_histogram_bucket{le=\"+Inf\"} 5";
      "test_obs_histogram_count 5";
    ]

let test_registration_collisions () =
  ignore (Metrics.counter "test_obs_kind_clash");
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"test_obs_kind_clash\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge "test_obs_kind_clash"));
  ignore (Metrics.histogram ~buckets:[| 1.0 |] "test_obs_bucket_clash");
  Alcotest.check_raises "bucket clash rejected"
    (Invalid_argument "Metrics: \"test_obs_bucket_clash\" already registered with other buckets")
    (fun () ->
      ignore (Metrics.histogram ~buckets:[| 2.0 |] "test_obs_bucket_clash"));
  Alcotest.check_raises "duplicate label keys rejected"
    (Invalid_argument "Metrics: duplicate label key \"k\" on metric \"test_obs_dup_label\"")
    (fun () ->
      ignore
        (Metrics.counter ~labels:[ ("k", "a"); ("k", "b") ] "test_obs_dup_label"));
  Alcotest.check_raises "unordered buckets rejected"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing")
    (fun () ->
      ignore (Metrics.histogram ~buckets:[| 2.0; 1.0 |] "test_obs_bad_buckets"))

let test_label_series_independent () =
  let a = Metrics.counter ~labels:[ ("algo", "A") ] "test_obs_labeled"
  and b = Metrics.counter ~labels:[ ("algo", "B") ] "test_obs_labeled" in
  with_obs (fun () ->
      Metrics.Counter.incr a;
      Metrics.Counter.incr a;
      Metrics.Counter.incr b);
  Alcotest.(check int) "series A" 2 (Metrics.Counter.value a);
  Alcotest.(check int) "series B" 1 (Metrics.Counter.value b);
  (* Label order is canonicalised: both spellings name the same series. *)
  let c1 =
    Metrics.counter ~labels:[ ("x", "1"); ("y", "2") ] "test_obs_label_order"
  and c2 =
    Metrics.counter ~labels:[ ("y", "2"); ("x", "1") ] "test_obs_label_order"
  in
  with_obs (fun () -> Metrics.Counter.incr c1);
  Alcotest.(check int) "canonical label order" 1 (Metrics.Counter.value c2)

let test_snapshot_determinism () =
  (* A fixed scenario renders byte-identically, and repeated snapshots of
     the same state are equal. *)
  Metrics.reset ();
  let c = Metrics.counter ~labels:[ ("algo", "X") ] "test_obs_counter" in
  with_obs (fun () -> Metrics.Counter.add c 7);
  let s1 = Metrics.to_prometheus () and s2 = Metrics.to_prometheus () in
  Alcotest.(check string) "stable prometheus snapshot" s1 s2;
  Alcotest.(check bool) "series rendered" true
    (contains ~affix:"test_obs_counter{algo=\"X\"} 7" s1);
  let j1 = Metrics.to_json () and j2 = Metrics.to_json () in
  Alcotest.(check string) "stable json snapshot" j1 j2;
  Alcotest.(check bool) "json series rendered" true
    (contains
       ~affix:
         "{\"name\":\"test_obs_counter\",\"type\":\"counter\",\"help\":\"\",\"labels\":{\"algo\":\"X\"},\"value\":7}"
       j1);
  (* reset zeroes values but keeps registrations. *)
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.Counter.value c);
  Alcotest.(check bool) "registration survives reset" true
    (contains ~affix:"test_obs_counter{algo=\"X\"} 0" (Metrics.to_prometheus ()))

(* ----------------------------------------------------------------- trace *)

let test_trace_nesting () =
  with_obs ~trace:true (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner-1" (fun () -> ());
          Trace.with_span "inner-2" (fun () ->
              Trace.with_span "leaf" (fun () -> ()))));
  let spans = Trace.spans () in
  Alcotest.(check (list string))
    "start order" [ "outer"; "inner-1"; "inner-2"; "leaf" ]
    (List.map (fun s -> s.Trace.name) spans);
  Alcotest.(check (list int))
    "depths" [ 0; 1; 1; 2 ]
    (List.map (fun s -> s.Trace.depth) spans);
  let outer = List.hd spans in
  List.iter
    (fun s ->
      if s.Trace.depth = 1 then
        Alcotest.(check int)
          (s.Trace.name ^ " parent") outer.Trace.id s.Trace.parent)
    spans;
  Alcotest.(check int) "outer is a root" (-1) outer.Trace.parent

let test_trace_disabled_is_free () =
  Trace.clear ();
  Alcotest.(check int) "returns the function's value" 9
    (Trace.with_span "ignored" (fun () -> 9));
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ())

let test_trace_exception_safety () =
  with_obs ~trace:true (fun () ->
      (try
         Trace.with_span "outer" (fun () ->
             Trace.with_span "boom" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Trace.with_span "after" (fun () -> ()));
  let spans = Trace.spans () in
  Alcotest.(check (list string))
    "spans recorded despite raise" [ "outer"; "boom"; "after" ]
    (List.map (fun s -> s.Trace.name) spans);
  let after = List.nth spans 2 in
  Alcotest.(check int) "depth restored after raise" 0 after.Trace.depth

let test_trace_ring_overwrite () =
  Trace.set_capacity 4;
  Fun.protect
    ~finally:(fun () -> Trace.set_capacity 1024)
    (fun () ->
      with_obs ~trace:true (fun () ->
          for i = 1 to 6 do
            Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
          done);
      Alcotest.(check int) "ring keeps capacity" 4
        (List.length (Trace.spans ()));
      Alcotest.(check int) "overwritten spans counted" 2 (Trace.dropped ());
      Alcotest.(check (list string))
        "newest spans survive" [ "s3"; "s4"; "s5"; "s6" ]
        (List.map (fun s -> s.Trace.name) (Trace.spans ())))

(* ---------------------------------------------------- engine metrics + pp *)

let test_engine_records_metrics () =
  let instance = Fixtures.example2 () in
  Metrics.reset ();
  let outcome =
    with_obs ~trace:true (fun () ->
        (Ltc_algo.Algorithm.laf).Ltc_algo.Algorithm.run ~seed:1 instance)
  in
  let arrivals =
    Metrics.counter ~labels:[ ("algo", "LAF") ] "ltc_engine_arrivals_total"
  in
  Alcotest.(check int) "arrivals counter = workers consumed"
    outcome.Ltc_algo.Engine.workers_consumed
    (Metrics.Counter.value arrivals);
  let decision =
    Metrics.histogram ~labels:[ ("algo", "LAF") ] "ltc_engine_decision_seconds"
  in
  Alcotest.(check int) "one decision time per worker consumed"
    outcome.Ltc_algo.Engine.workers_consumed
    (Metrics.Histogram.count decision);
  Alcotest.(check bool) "engine span recorded" true
    (List.exists
       (fun s -> s.Trace.name = "engine:LAF")
       (Trace.spans ()));
  Metrics.reset ()

let test_pp_outcome_format () =
  let outcome =
    {
      Ltc_algo.Engine.name = "LAF";
      arrangement =
        Ltc_core.Arrangement.add Ltc_core.Arrangement.empty ~worker:3 ~task:0;
      completed = true;
      latency = 3;
      workers_consumed = 5;
      peak_memory_mb = 1.25;
      degraded = 0;
    }
  in
  Alcotest.(check string) "pinned format"
    "LAF: latency=3 assignments=1 completed=true consumed=5 mem=1.25MB"
    (Format.asprintf "%a" Ltc_algo.Engine.pp_outcome outcome)

(* ------------------------------------------------------------------- hdr *)

(* Nearest-rank percentile on the raw sample — the ground truth the
   log-bucketed estimate must stay within rel_error of. *)
let exact_percentile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int n))) in
  sorted.(rank - 1)

let prop_hdr_relative_error =
  QCheck2.Test.make
    ~name:"hdr: every percentile within the configured relative error"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 500) (float_range 1e-6 1e4))
    (fun xs ->
      let h = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.observe h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      if Metrics.Hdr.count h <> Array.length sorted then
        QCheck2.Test.fail_reportf "count %d <> %d" (Metrics.Hdr.count h)
          (Array.length sorted);
      let tol = Metrics.Hdr.rel_error +. 1e-12 in
      List.iter
        (fun q ->
          let est = Metrics.Hdr.percentile h q in
          let exact = exact_percentile sorted q in
          if Float.abs (est -. exact) > tol *. exact then
            QCheck2.Test.fail_reportf "p%g: estimate %g vs exact %g (tol %g)"
              q est exact tol)
        [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ];
      true)

let prop_hdr_merge_is_concat =
  QCheck2.Test.make
    ~name:"hdr: merge == observing the concatenation" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200) (float_range 1e-6 1e4))
        (list_size (int_range 0 200) (float_range 1e-6 1e4)))
    (fun (xs, ys) ->
      let ha = Metrics.Hdr.create () in
      let hb = Metrics.Hdr.create () in
      let hc = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.observe ha) xs;
      List.iter (Metrics.Hdr.observe hb) ys;
      List.iter (Metrics.Hdr.observe hc) (xs @ ys);
      Metrics.Hdr.merge ~into:ha hb;
      if Metrics.Hdr.count ha <> Metrics.Hdr.count hc then
        QCheck2.Test.fail_reportf "count %d <> %d" (Metrics.Hdr.count ha)
          (Metrics.Hdr.count hc);
      if Float.abs (Metrics.Hdr.sum ha -. Metrics.Hdr.sum hc)
         > 1e-9 *. Float.max 1.0 (Metrics.Hdr.sum hc)
      then
        QCheck2.Test.fail_reportf "sum %g <> %g" (Metrics.Hdr.sum ha)
          (Metrics.Hdr.sum hc);
      if Metrics.Hdr.count hc > 0 then begin
        if Metrics.Hdr.min_observed ha <> Metrics.Hdr.min_observed hc then
          QCheck2.Test.fail_report "min diverged";
        if Metrics.Hdr.max_observed ha <> Metrics.Hdr.max_observed hc then
          QCheck2.Test.fail_report "max diverged";
        (* Same bucket counts => bit-equal percentiles. *)
        List.iter
          (fun q ->
            if Metrics.Hdr.percentile ha q <> Metrics.Hdr.percentile hc q then
              QCheck2.Test.fail_reportf "p%g diverged" q)
          [ 50.0; 99.0; 100.0 ]
      end;
      true)

let test_hdr_drops_non_finite () =
  let h = Metrics.Hdr.create () in
  Metrics.Hdr.observe h 1.0;
  Metrics.Hdr.observe h Float.nan;
  Metrics.Hdr.observe h Float.infinity;
  Metrics.Hdr.observe h Float.neg_infinity;
  Alcotest.(check int) "only the finite value counted" 1 (Metrics.Hdr.count h);
  Alcotest.(check int) "three drops recorded" 3 (Metrics.Hdr.dropped h);
  Alcotest.(check (float 0.0)) "sum untouched" 1.0 (Metrics.Hdr.sum h);
  with_obs (fun () ->
      let before = Metrics.dropped_observations () in
      Metrics.Hdr.observe h Float.nan;
      Alcotest.(check int) "registry drop counter bumped" (before + 1)
        (Metrics.dropped_observations ()))

let test_histogram_drops_non_finite () =
  let h = Metrics.histogram "test_obs_hist_nonfinite" in
  with_obs (fun () ->
      Metrics.Histogram.observe h 0.5;
      let before = Metrics.dropped_observations () in
      Metrics.Histogram.observe h Float.nan;
      Metrics.Histogram.observe h Float.infinity;
      Alcotest.(check int) "count unchanged by non-finite" 1
        (Metrics.Histogram.count h);
      Alcotest.(check (float 0.0)) "sum unchanged" 0.5
        (Metrics.Histogram.sum h);
      Alcotest.(check int) "drops counted" (before + 2)
        (Metrics.dropped_observations ()))

(* Prometheus exposition format: label pairs sorted by key, values
   escaped (backslash, quote, newline) — exact bytes. *)
let test_prom_label_escaping () =
  let c =
    Metrics.counter
      ~labels:[ ("z", "plain"); ("a", "a\"b\\c\nd") ]
      "test_obs_escape_total"
  in
  with_obs (fun () ->
      Metrics.Counter.incr c;
      let lines = String.split_on_char '\n' (Metrics.to_prometheus ()) in
      match
        List.find_opt
          (fun l -> Astring.String.is_prefix ~affix:"test_obs_escape_total{" l)
          lines
      with
      | None -> Alcotest.fail "series missing from exposition"
      | Some line ->
        Alcotest.(check string) "sorted + escaped"
          "test_obs_escape_total{a=\"a\\\"b\\\\c\\nd\",z=\"plain\"} 1" line)

let test_trace_chrome_export () =
  with_obs ~trace:true (fun () ->
      Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> ()));
      let j = Trace.to_chrome_json () in
      Alcotest.(check bool) "JSON array" true
        (String.length j > 2 && j.[0] = '[');
      Alcotest.(check bool) "complete events" true
        (contains ~affix:"\"ph\":\"X\"" j);
      Alcotest.(check bool) "outer span exported" true
        (contains ~affix:"\"name\":\"outer\"" j);
      Alcotest.(check bool) "inner span exported" true
        (contains ~affix:"\"name\":\"inner\"" j))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
        Alcotest.test_case "histogram semantics" `Quick
          test_histogram_semantics;
        Alcotest.test_case "registration collisions" `Quick
          test_registration_collisions;
        Alcotest.test_case "labeled series independent" `Quick
          test_label_series_independent;
        Alcotest.test_case "snapshot determinism" `Quick
          test_snapshot_determinism;
        Alcotest.test_case "trace nesting" `Quick test_trace_nesting;
        Alcotest.test_case "trace disabled is free" `Quick
          test_trace_disabled_is_free;
        Alcotest.test_case "trace exception safety" `Quick
          test_trace_exception_safety;
        Alcotest.test_case "trace ring overwrite" `Quick
          test_trace_ring_overwrite;
        Alcotest.test_case "engine records metrics" `Quick
          test_engine_records_metrics;
        Alcotest.test_case "pp_outcome format" `Quick test_pp_outcome_format;
      ] );
    ( "obs.hdr",
      [
        QCheck_alcotest.to_alcotest prop_hdr_relative_error;
        QCheck_alcotest.to_alcotest prop_hdr_merge_is_concat;
        Alcotest.test_case "non-finite dropped" `Quick
          test_hdr_drops_non_finite;
        Alcotest.test_case "histogram non-finite dropped" `Quick
          test_histogram_drops_non_finite;
        Alcotest.test_case "prometheus label escaping" `Quick
          test_prom_label_escaping;
        Alcotest.test_case "chrome trace export" `Quick
          test_trace_chrome_export;
      ] );
  ]
