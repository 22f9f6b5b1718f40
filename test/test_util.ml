open Ltc_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 13)
  done

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:7 in
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_int_uniformity () =
  (* Chi-square-ish sanity: all 10 buckets within 3x of expectation. *)
  let rng = Rng.create ~seed:123 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near expectation" true
        (c > n / 20 && c < n / 5))
    buckets

let test_rng_split_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  (* The split stream must not equal the parent's continuation. *)
  let xs = List.init 8 (fun _ -> Rng.bits64 a) in
  let ys = List.init 8 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:77 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_copy () =
  let a = Rng.create ~seed:11 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
    (Rng.bits64 b)

(* --------------------------------------------------------- Distribution *)

let test_dist_uniform_range () =
  let rng = Rng.create ~seed:3 in
  let d = Distribution.Uniform { lo = 0.5; hi = 0.9 } in
  for _ = 1 to 5_000 do
    let x = Distribution.sample rng d in
    Alcotest.(check bool) "in range" true (x >= 0.5 && x <= 0.9)
  done

let test_dist_normal_mean () =
  let rng = Rng.create ~seed:4 in
  let d = Distribution.Normal { mu = 0.86; sigma = 0.05 } in
  let xs = Array.init 20_000 (fun _ -> Distribution.sample rng d) in
  Alcotest.(check bool) "mean close to mu" true
    (Float.abs (Stats.mean xs -. 0.86) < 0.005);
  Alcotest.(check bool) "stddev close to sigma" true
    (Float.abs (Stats.stddev xs -. 0.05) < 0.005)

let test_dist_truncated_band () =
  let rng = Rng.create ~seed:5 in
  let d = Distribution.accuracy_normal ~mu:0.82 in
  for _ = 1 to 5_000 do
    let x = Distribution.sample rng d in
    Alcotest.(check bool) "trusted band" true (x >= 0.66 && x <= 1.0)
  done

let test_dist_accuracy_uniform_band () =
  let rng = Rng.create ~seed:6 in
  let d = Distribution.accuracy_uniform ~mean:0.9 in
  for _ = 1 to 5_000 do
    let x = Distribution.sample rng d in
    Alcotest.(check bool) "clipped at 1" true (x >= 0.82 && x <= 1.0)
  done

let test_dist_constant () =
  let rng = Rng.create ~seed:1 in
  check_float "constant" 0.7 (Distribution.sample rng (Constant 0.7));
  check_float "mean of constant" 0.7 (Distribution.mean (Constant 0.7))

(* ------------------------------------------------------------------ Heap *)

let test_heap_sorts () =
  let h = Heap.create ~leq:(fun a b -> a <= b) () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 5; 9; 2; 6 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "heapsort" [ 1; 1; 2; 4; 5; 5; 6; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h);
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_of_array () =
  let h = Heap.of_array ~leq:(fun a b -> a <= b) [| 3; 1; 2 |] in
  Alcotest.(check (option int)) "min on top" (Some 1) (Heap.peek h);
  Alcotest.(check int) "length" 3 (Heap.length h)

let test_heap_float_instantiation () =
  (* Regression guard: the backing store must cope with unboxed-float
     element types. *)
  let h = Heap.create ~leq:(fun (a : float) b -> a <= b) () in
  List.iter (Heap.push h) [ 3.5; 1.25; 2.0 ];
  Alcotest.(check (option (float 0.0))) "min" (Some 1.25) (Heap.pop h)

let test_heap_clear () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) () in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h);
  Heap.push h 9;
  Alcotest.(check (option int)) "reusable" (Some 9) (Heap.pop h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.of_array ~leq:(fun a b -> a <= b) (Array.of_list xs) in
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* ---------------------------------------------------------- Bounded_heap *)

let top_k_reference k xs =
  (* Stable: earlier elements win ties. *)
  let indexed = List.mapi (fun i x -> (x, i)) xs in
  let sorted =
    List.sort
      (fun (a, i) (b, j) -> if a = b then compare i j else compare b a)
      indexed
  in
  List.filteri (fun i _ -> i < k) sorted |> List.map fst

let test_bounded_heap_topk () =
  let bh = Bounded_heap.create ~k:3 () in
  List.iteri
    (fun i score -> Bounded_heap.push bh ~score i)
    [ 0.5; 0.9; 0.1; 0.9; 0.7 ];
  let kept = Bounded_heap.pop_all bh in
  Alcotest.(check (list int)) "descending, stable ties" [ 1; 3; 4 ]
    (List.map snd kept);
  Alcotest.(check (list (float 1e-9))) "scores" [ 0.9; 0.9; 0.7 ]
    (List.map fst kept)

let test_bounded_heap_underfill () =
  let bh = Bounded_heap.create ~k:5 () in
  Bounded_heap.push bh ~score:1.0 "a";
  Bounded_heap.push bh ~score:2.0 "b";
  Alcotest.(check (list string)) "all kept" [ "b"; "a" ]
    (List.map snd (Bounded_heap.pop_all bh));
  (* A capacity far beyond any candidate set allocates only what it holds. *)
  let huge = Bounded_heap.create ~k:(1 lsl 40) () in
  List.iter (fun i -> Bounded_heap.push huge ~score:1.0 i) (List.init 40 Fun.id);
  Alcotest.(check (list int)) "k = 2^40 keeps all, ties in push order"
    (List.init 40 Fun.id)
    (List.map snd (Bounded_heap.pop_all huge))

let test_bounded_heap_invalid_k () =
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Bounded_heap.create: k must be positive") (fun () ->
      ignore (Bounded_heap.create ~k:0 ()))

let prop_bounded_heap_matches_sort =
  QCheck2.Test.make ~name:"bounded heap keeps the k largest (stable)"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 40) (list (float_range 0.0 1.0)))
    (fun (k, scores) ->
      let bh = Bounded_heap.create ~k () in
      List.iteri (fun i s -> Bounded_heap.push bh ~score:s i) scores;
      let kept = List.map fst (Bounded_heap.pop_all bh) in
      kept = top_k_reference k scores)

(* ----------------------------------------------------------------- Stats *)

let test_stats_mean_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float "sample stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev xs)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 100.0);
  check_float "p50 interpolates" 2.5 (Stats.percentile xs 50.0)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 3.0 |] in
  Alcotest.(check int) "n" 2 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 3.0 s.Stats.max

let test_stats_empty () =
  Alcotest.check_raises "summarize empty"
    (Invalid_argument "Stats.summarize: empty array") (fun () ->
      ignore (Stats.summarize [||]))

(* ------------------------------------------------------------------- Mem *)

let test_mem_tracker_high_water () =
  let t = Mem.Tracker.create () in
  Mem.Tracker.set_baseline_words t 1024;
  Mem.Tracker.add_words t 4096;
  Mem.Tracker.remove_words t 4096;
  Mem.Tracker.add_words t 100;
  let expected = Mem.words_to_mb (1024 + 4096) in
  check_float "peak includes baseline" expected (Mem.Tracker.high_water_mb t)

let test_mem_words_to_mb () =
  let mb = Mem.words_to_mb (1024 * 1024 / (Sys.word_size / 8)) in
  check_float "1 MB" 1.0 mb

(* ------------------------------------------------------------------- Log *)

let test_log_setup_and_emit () =
  (* Smoke: setting up logging and emitting through every source must not
     raise; the reporter writes to stderr, invisible to assertions. *)
  Log.setup ~level:Logs.Debug ();
  Logs.debug ~src:Log.algo (fun m -> m "algo event %d" 1);
  Logs.info ~src:Log.flow (fun m -> m "flow event");
  Logs.warn ~src:Log.workload (fun m -> m "workload event ~header" ~header:"h");
  (* Restore quiet default so later tests don't spam stderr. *)
  Logs.set_level None;
  Alcotest.(check bool) "sources named" true
    (Logs.Src.name Log.algo = "ltc.algo"
    && Logs.Src.name Log.flow = "ltc.flow"
    && Logs.Src.name Log.workload = "ltc.workload")

(* ----------------------------------------------------------------- Table *)

let test_table_render () =
  let out =
    Table.render ~header:[ "x"; "value" ]
      [ [ Table.Int 1; Table.Float 0.5 ]; [ Table.Int 20; Table.Float 1.25 ] ]
  in
  Alcotest.(check bool) "contains aligned row" true
    (Astring.String.is_infix ~affix:"20" out
    && Astring.String.is_infix ~affix:"1.25" out);
  Alcotest.(check bool) "has rule" true (Astring.String.is_infix ~affix:"---" out)

let test_table_row_width_mismatch () =
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Table.render ~header:[ "a"; "b" ] [ [ Table.Int 1 ] ]))

(* ------------------------------------------------------------ Ascii_plot *)

let test_plot_renders_markers_and_legend () =
  let out =
    Ascii_plot.render
      [
        { Ascii_plot.name = "up"; points = [ (0.0, 0.0); (10.0, 10.0) ] };
        { Ascii_plot.name = "down"; points = [ (0.0, 10.0); (10.0, 0.0) ] };
      ]
  in
  Alcotest.(check bool) "first marker" true (String.contains out '*');
  Alcotest.(check bool) "second marker" true (String.contains out '+');
  Alcotest.(check bool) "legend names" true
    (Astring.String.is_infix ~affix:"*=up" out
    && Astring.String.is_infix ~affix:"+=down" out);
  Alcotest.(check bool) "y max labelled" true
    (Astring.String.is_infix ~affix:"10" out)

let test_plot_empty () =
  Alcotest.(check string) "no series" "" (Ascii_plot.render []);
  Alcotest.(check string) "only nan" ""
    (Ascii_plot.render [ { Ascii_plot.name = "n"; points = [ (nan, 1.0) ] } ])

let test_plot_constant_series () =
  (* Degenerate y-range must not divide by zero. *)
  let out =
    Ascii_plot.render
      [ { Ascii_plot.name = "flat"; points = [ (0.0, 5.0); (1.0, 5.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_plot_marker_positions () =
  (* An increasing series must put the first point in the bottom-left
     region and the last in the top-right region of the canvas. *)
  let out =
    Ascii_plot.render ~width:20 ~height:5 ~connect:false
      [ { Ascii_plot.name = "s"; points = [ (0.0, 0.0); (1.0, 1.0) ] } ]
  in
  let lines = String.split_on_char '\n' out in
  let top = List.nth lines 0 and bottom = List.nth lines 4 in
  Alcotest.(check bool) "max at top right" true
    (String.index top '*' > String.length top - 4);
  Alcotest.(check bool) "min at bottom left" true
    (String.index bottom '*' < 14)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle is a permutation" `Quick
          test_rng_shuffle_permutation;
        Alcotest.test_case "copy" `Quick test_rng_copy;
      ] );
    ( "util.distribution",
      [
        Alcotest.test_case "uniform range" `Quick test_dist_uniform_range;
        Alcotest.test_case "normal moments" `Quick test_dist_normal_mean;
        Alcotest.test_case "truncated band" `Quick test_dist_truncated_band;
        Alcotest.test_case "uniform accuracy band" `Quick
          test_dist_accuracy_uniform_band;
        Alcotest.test_case "constant" `Quick test_dist_constant;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
        Alcotest.test_case "of_array" `Quick test_heap_of_array;
        Alcotest.test_case "float elements" `Quick test_heap_float_instantiation;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        qcheck prop_heap_sorts;
      ] );
    ( "util.bounded_heap",
      [
        Alcotest.test_case "top-k with stable ties" `Quick test_bounded_heap_topk;
        Alcotest.test_case "underfill" `Quick test_bounded_heap_underfill;
        Alcotest.test_case "invalid k" `Quick test_bounded_heap_invalid_k;
        qcheck prop_bounded_heap_matches_sort;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "empty raises" `Quick test_stats_empty;
      ] );
    ( "util.mem",
      [
        Alcotest.test_case "tracker high water" `Quick test_mem_tracker_high_water;
        Alcotest.test_case "words to MB" `Quick test_mem_words_to_mb;
      ] );
    ( "util.log",
      [ Alcotest.test_case "setup and emit" `Quick test_log_setup_and_emit ] );
    ( "util.ascii_plot",
      [
        Alcotest.test_case "markers and legend" `Quick
          test_plot_renders_markers_and_legend;
        Alcotest.test_case "empty inputs" `Quick test_plot_empty;
        Alcotest.test_case "constant series" `Quick test_plot_constant_series;
        Alcotest.test_case "marker positions" `Quick test_plot_marker_positions;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "row width mismatch" `Quick
          test_table_row_width_mismatch;
      ] );
  ]
