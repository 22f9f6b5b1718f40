open Ltc_core
open Ltc_workload

(* ------------------------------------------------------------------ Spec *)

let test_defaults_match_table4 () =
  let s = Spec.default_synthetic in
  Alcotest.(check int) "|T|" 3000 s.Spec.n_tasks;
  Alcotest.(check int) "|W|" 40000 s.Spec.n_workers;
  Alcotest.(check int) "K" 6 s.Spec.capacity;
  Alcotest.(check (float 1e-9)) "eps" 0.14 s.Spec.epsilon;
  Alcotest.(check (float 1e-9)) "dmax" 30.0 s.Spec.dmax;
  Alcotest.(check bool) "normal 0.86" true (s.Spec.accuracy = Spec.Normal_acc 0.86)

let test_sweeps_match_table4 () =
  Alcotest.(check (list int)) "tasks" [ 1000; 2000; 3000; 4000; 5000 ]
    Spec.n_tasks_sweep;
  Alcotest.(check (list int)) "capacity" [ 4; 5; 6; 7; 8 ] Spec.capacity_sweep;
  Alcotest.(check int) "scalability rows" 6 (List.length Spec.scalability_sweep);
  List.iter
    (fun (_, w) -> Alcotest.(check int) "400k workers" 400_000 w)
    Spec.scalability_sweep

let test_table5_cardinalities () =
  Alcotest.(check int) "NY tasks" 3717 Spec.new_york.Spec.c_n_tasks;
  Alcotest.(check int) "NY workers" 227_428 Spec.new_york.Spec.c_n_workers;
  Alcotest.(check int) "Tokyo tasks" 9317 Spec.tokyo.Spec.c_n_tasks;
  Alcotest.(check int) "Tokyo workers" 573_703 Spec.tokyo.Spec.c_n_workers

let test_scaling_preserves_density () =
  let s = Spec.scale_synthetic 0.25 Spec.default_synthetic in
  Alcotest.(check int) "tasks" 750 s.Spec.n_tasks;
  Alcotest.(check int) "workers" 10000 s.Spec.n_workers;
  Alcotest.(check (float 1e-6)) "side" 500.0 s.Spec.world_side;
  (* density = n / side^2 invariant *)
  let density spec =
    float_of_int spec.Spec.n_tasks /. (spec.Spec.world_side ** 2.0)
  in
  Alcotest.(check (float 1e-9)) "task density"
    (density Spec.default_synthetic) (density s);
  Alcotest.(check int) "identity at 1"
    Spec.default_synthetic.Spec.n_tasks
    (Spec.scale_synthetic 1.0 Spec.default_synthetic).Spec.n_tasks

let test_scaling_invalid () =
  List.iter
    (fun (label, factor) ->
      Alcotest.check_raises (label ^ " synthetic")
        (Invalid_argument "Spec.scale_synthetic: factor must be finite and > 0")
        (fun () -> ignore (Spec.scale_synthetic factor Spec.default_synthetic));
      Alcotest.check_raises (label ^ " city")
        (Invalid_argument "Spec.scale_city: factor must be finite and > 0")
        (fun () -> ignore (Spec.scale_city factor Spec.new_york)))
    [ ("zero", 0.0); ("negative", -1.0); ("nan", nan); ("inf", infinity) ];
  (* Counts below 1 are refused, not clamped to one task or worker. *)
  let refuses msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  refuses "Spec.scale_synthetic: n_tasks must be >= 1 (got -3)" (fun () ->
      Spec.scale_synthetic 1.0 { Spec.default_synthetic with n_tasks = -3 });
  refuses "Spec.scale_synthetic: n_workers must be >= 1 (got 0)" (fun () ->
      Spec.scale_synthetic 0.1 { Spec.default_synthetic with n_workers = 0 });
  refuses "Spec.scale_city: c_n_tasks must be >= 1 (got 0)" (fun () ->
      Spec.scale_city 1.0 { Spec.tokyo with c_n_tasks = 0 });
  refuses "Spec.scale_city: c_n_workers must be >= 1 (got -2)" (fun () ->
      Spec.scale_city 0.01 { Spec.tokyo with c_n_workers = -2 });
  (* A count of 1 still scales, and a tiny factor still keeps one. *)
  Alcotest.(check int) "one task kept" 1
    (Spec.scale_synthetic 0.001 { Spec.default_synthetic with n_tasks = 1 })
      .Spec.n_tasks

(* -------------------------------------------------------------- Synthetic *)

let small_spec =
  Spec.
    {
      default_synthetic with
      n_tasks = 50;
      n_workers = 400;
      world_side = 200.0;
    }

let test_synthetic_shape () =
  let i = Synthetic.generate (Ltc_util.Rng.create ~seed:1) small_spec in
  Alcotest.(check int) "tasks" 50 (Instance.task_count i);
  Alcotest.(check int) "workers" 400 (Instance.worker_count i);
  Array.iteri
    (fun k (w : Worker.t) ->
      Alcotest.(check int) "arrival order" (k + 1) w.index;
      Alcotest.(check int) "capacity" 6 w.capacity;
      Alcotest.(check bool) "trusted accuracy" true
        (w.accuracy >= 0.66 && w.accuracy <= 1.0);
      Alcotest.(check bool) "in world" true
        (w.loc.Ltc_geo.Point.x >= 0.0
        && w.loc.Ltc_geo.Point.x <= 200.0
        && w.loc.Ltc_geo.Point.y >= 0.0
        && w.loc.Ltc_geo.Point.y <= 200.0))
    i.Instance.workers

let test_synthetic_deterministic () =
  let gen seed = Synthetic.generate (Ltc_util.Rng.create ~seed) small_spec in
  let a = gen 7 and b = gen 7 and c = gen 8 in
  Alcotest.(check bool) "same seed, same workers" true
    (a.Instance.workers = b.Instance.workers);
  Alcotest.(check bool) "different seed differs" false
    (a.Instance.workers = c.Instance.workers)

let test_synthetic_uniform_accuracy_model () =
  let spec = { small_spec with Spec.accuracy = Spec.Uniform_acc 0.9 } in
  let i = Synthetic.generate (Ltc_util.Rng.create ~seed:2) spec in
  Array.iter
    (fun (w : Worker.t) ->
      Alcotest.(check bool) "in uniform band" true
        (w.accuracy >= 0.82 && w.accuracy <= 0.98 +. 1e-9))
    i.Instance.workers

(* ------------------------------------------------------------------ City *)

let tiny_city =
  Spec.
    {
      new_york with
      c_n_tasks = 60;
      c_n_workers = 1500;
      c_side = 300.0;
      c_clusters = 6;
    }

let test_city_shape () =
  let i = City.generate (Ltc_util.Rng.create ~seed:3) tiny_city in
  Alcotest.(check int) "tasks" 60 (Instance.task_count i);
  Alcotest.(check int) "workers" 1500 (Instance.worker_count i);
  Array.iter
    (fun (t : Task.t) ->
      Alcotest.(check bool) "task in city" true
        (t.loc.Ltc_geo.Point.x >= 0.0 && t.loc.Ltc_geo.Point.x <= 300.0))
    i.Instance.tasks

let test_city_is_clustered () =
  (* Check-ins concentrate: the busiest 10% of grid cells should hold far
     more than 10% of the workers (they would under a uniform layout they
     would hold ~10%). *)
  let i = City.generate (Ltc_util.Rng.create ~seed:4) tiny_city in
  let cells = 10 in
  let histogram = Array.make (cells * cells) 0 in
  Array.iter
    (fun (w : Worker.t) ->
      let cx =
        min (cells - 1) (int_of_float (w.loc.Ltc_geo.Point.x /. 300.0 *. 10.0))
      in
      let cy =
        min (cells - 1) (int_of_float (w.loc.Ltc_geo.Point.y /. 300.0 *. 10.0))
      in
      histogram.((cy * cells) + cx) <- histogram.((cy * cells) + cx) + 1)
    i.Instance.workers;
  Array.sort (fun a b -> compare b a) histogram;
  let top10 = Array.fold_left ( + ) 0 (Array.sub histogram 0 10) in
  (* Under a uniform layout the busiest 10% of cells would hold ~10% of the
     1500 workers (~150); the mixture concentrates at least twice that. *)
  Alcotest.(check bool)
    (Printf.sprintf "top 10 cells hold %d of 1500" top10)
    true (top10 > 300)

let test_city_hotspot_weights () =
  let spots = City.hotspots (Ltc_util.Rng.create ~seed:5) tiny_city in
  Alcotest.(check int) "cluster count" 6 (Array.length spots);
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 spots in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 total;
  (* Zipf: first weight is the largest. *)
  let w0 = snd spots.(0) in
  Array.iter (fun (_, w) -> Alcotest.(check bool) "zipf head" true (w <= w0)) spots

let test_city_completable () =
  (* The algorithms must be able to finish a city workload. *)
  let i = City.generate (Ltc_util.Rng.create ~seed:6) tiny_city in
  let o = Ltc_algo.Aam.run i in
  Alcotest.(check bool) "AAM completes" true o.Ltc_algo.Engine.completed

(* ----------------------------------------------------------------- Shape *)

(* Deterministic constant shape: arrival i lands exactly at (i+1)/rate —
   one unit of integrated rate per arrival, no jitter. *)
let test_shape_constant_spacing () =
  let s = Shape.make ~rate:100.0 Shape.Constant in
  let ts = Shape.times s ~seed:0 ~n:5 in
  Alcotest.(check int) "n arrivals" 5 (Array.length ts);
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "arrival %d" i)
        (float_of_int (i + 1) /. 100.0)
        t)
    ts

let test_shape_deterministic () =
  let s =
    Shape.make ~poisson:true ~rate:50.0
      (Shape.Diurnal { amplitude = 0.5; period_s = 10.0 })
  in
  let a = Shape.times s ~seed:9 ~n:200 in
  let b = Shape.times s ~seed:9 ~n:200 in
  Alcotest.(check bool) "same seed, bit-equal schedule" true (a = b);
  let c = Shape.times s ~seed:10 ~n:200 in
  Alcotest.(check bool) "different seed, different jitter" true (a <> c)

(* A flash crowd multiplies the arrival density inside its window by the
   configured factor (deterministic integration, so the counts are
   exact up to the one straddling arrival). *)
let test_shape_burst_density () =
  let s =
    Shape.make ~rate:100.0
      (Shape.Burst { factor = 10.0; at_s = 1.0; dur_s = 1.0 })
  in
  let ts = Shape.times s ~seed:0 ~n:1500 in
  let inside =
    Array.fold_left
      (fun acc t -> if t >= 1.0 && t < 2.0 then acc + 1 else acc)
      0 ts
  in
  Alcotest.(check bool)
    (Printf.sprintf "~1000 arrivals in the burst window (got %d)" inside)
    true
    (abs (inside - 1000) <= 1);
  (* The first 1 s runs at the base rate. *)
  let before =
    Array.fold_left (fun acc t -> if t < 1.0 then acc + 1 else acc) 0 ts
  in
  Alcotest.(check bool)
    (Printf.sprintf "~100 arrivals before it (got %d)" before)
    true
    (abs (before - 100) <= 1)

(* Pausing shapes never schedule an arrival inside an off window. *)
let test_shape_pausing_windows () =
  let on_s = 1.0 and off_s = 2.0 in
  let s = Shape.make ~rate:100.0 (Shape.Pausing { on_s; off_s }) in
  let ts = Shape.times s ~seed:0 ~n:400 in
  Array.iter
    (fun t ->
      let phase = Float.rem t (on_s +. off_s) in
      Alcotest.(check bool)
        (Printf.sprintf "arrival at %.6f is in an on-window" t)
        true
        (phase <= on_s +. 1e-6))
    ts;
  (* 400 arrivals at 100/s need 4 s of on-time = 4 full cycles = 12 s
     of span (minus the trailing off window). *)
  Alcotest.(check bool) "lulls stretch the span" true (ts.(399) >= 9.0)

let test_shape_parse () =
  let parse spec =
    match Shape.of_string ~rate:500.0 spec with
    | Ok s -> Shape.to_string s
    | Error e -> "error: " ^ e
  in
  Alcotest.(check string) "constant" "constant(rate=500)" (parse "constant");
  Alcotest.(check string) "alias + params"
    "burst(rate=500,factor=2,at=1,dur=3)" (parse "flash:factor=2,at=1,dur=3");
  Alcotest.(check string) "defaults fill in"
    "rampup(rate=500,from=125,over=10)" (parse "rampup");
  Alcotest.(check string) "poisson suffix"
    "pausing(rate=500,on=5,off=5)+poisson" (parse "pause:poisson=true");
  let fails spec affix =
    match Shape.of_string ~rate:500.0 spec with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" spec
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s error mentions %s" spec affix)
        true
        (Astring.String.is_infix ~affix e)
  in
  fails "sawtooth" "unknown shape";
  fails "burst:zap=1" "zap";
  fails "diurnal:amp=1.5" "amplitude";
  fails "burst:factor=oops" "oops"

let prop_shape_schedule_sound =
  QCheck2.Test.make
    ~name:"any shape: schedule is finite, positive and non-decreasing"
    ~count:200
    QCheck2.Gen.(
      let* rate = float_range 1.0 1000.0 in
      let* poisson = bool in
      let* seed = int_range 0 1000 in
      let* k = int_range 0 4 in
      return (rate, poisson, seed, k))
    (fun (rate, poisson, seed, k) ->
      let kind =
        match k with
        | 0 -> Shape.Constant
        | 1 -> Shape.Ramp { from_rate = rate /. 4.0; over_s = 2.0 }
        | 2 -> Shape.Diurnal { amplitude = 0.9; period_s = 5.0 }
        | 3 -> Shape.Burst { factor = 8.0; at_s = 0.5; dur_s = 0.5 }
        | _ -> Shape.Pausing { on_s = 0.5; off_s = 0.5 }
      in
      let s = Shape.make ~poisson ~rate kind in
      let ts = Shape.times s ~seed ~n:100 in
      if Array.length ts <> 100 then
        QCheck2.Test.fail_reportf "expected 100 arrivals, got %d"
          (Array.length ts);
      Array.iteri
        (fun i t ->
          if not (Float.is_finite t) || t < 0.0 then
            QCheck2.Test.fail_reportf "arrival %d at %f" i t;
          if i > 0 && t < ts.(i - 1) then
            QCheck2.Test.fail_reportf "schedule decreases at %d (%f < %f)" i t
              ts.(i - 1);
          if Shape.rate_at s t < 0.0 then
            QCheck2.Test.fail_reportf "negative rate at %f" t)
        ts;
      true)

let suite =
  [
    ( "workload.spec",
      [
        Alcotest.test_case "Table IV defaults" `Quick test_defaults_match_table4;
        Alcotest.test_case "Table IV sweeps" `Quick test_sweeps_match_table4;
        Alcotest.test_case "Table V cardinalities" `Quick
          test_table5_cardinalities;
        Alcotest.test_case "density-preserving scaling" `Quick
          test_scaling_preserves_density;
        Alcotest.test_case "invalid scaling" `Quick test_scaling_invalid;
      ] );
    ( "workload.synthetic",
      [
        Alcotest.test_case "shape" `Quick test_synthetic_shape;
        Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
        Alcotest.test_case "uniform accuracy model" `Quick
          test_synthetic_uniform_accuracy_model;
      ] );
    ( "workload.city",
      [
        Alcotest.test_case "shape" `Quick test_city_shape;
        Alcotest.test_case "clustered" `Quick test_city_is_clustered;
        Alcotest.test_case "hotspot weights" `Quick test_city_hotspot_weights;
        Alcotest.test_case "completable" `Quick test_city_completable;
      ] );
    ( "workload.shape",
      [
        Alcotest.test_case "constant spacing" `Quick test_shape_constant_spacing;
        Alcotest.test_case "seeded determinism" `Quick test_shape_deterministic;
        Alcotest.test_case "burst density" `Quick test_shape_burst_density;
        Alcotest.test_case "pausing windows" `Quick test_shape_pausing_windows;
        Alcotest.test_case "spec parsing" `Quick test_shape_parse;
        QCheck_alcotest.to_alcotest prop_shape_schedule_sound;
      ] );
  ]
