open Ltc_flow

let check_float = Alcotest.(check (float 1e-6))

(* ----------------------------------------------------------------- Graph *)

let test_graph_basics () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:2.0 in
  let b = Graph.add_arc g ~src:1 ~dst:2 ~cap:3 ~cost:(-1.0) in
  Alcotest.(check int) "node count" 3 (Graph.node_count g);
  Alcotest.(check int) "arc count" 2 (Graph.arc_count g);
  Alcotest.(check int) "residual" 5 (Graph.residual g a);
  Alcotest.(check int) "flow 0" 0 (Graph.flow g a);
  Graph.push g a 2;
  Alcotest.(check int) "residual after push" 3 (Graph.residual g a);
  Alcotest.(check int) "flow after push" 2 (Graph.flow g a);
  Alcotest.(check int) "reverse residual" 2 (Graph.residual g (a lxor 1));
  check_float "cost" (-1.0) (Graph.cost g b);
  Alcotest.(check int) "src" 1 (Graph.src g b);
  Alcotest.(check int) "dst" 2 (Graph.dst g b)

let test_graph_push_cancel () =
  let g = Graph.create ~n:2 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:4 ~cost:1.0 in
  Graph.push g a 4;
  (* Pushing on the reverse arc cancels flow. *)
  Graph.push g (a lxor 1) 1;
  Alcotest.(check int) "flow cancelled" 3 (Graph.flow g a)

let test_graph_invalid () =
  let g = Graph.create ~n:2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Graph.add_arc: node out of range") (fun () ->
      ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0));
  (* A NaN label would poison Dijkstra's heap order. *)
  List.iter
    (fun cost ->
      Alcotest.check_raises "non-finite cost"
        (Invalid_argument "Graph.add_arc: cost must be finite") (fun () ->
          ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost)))
    [ Float.nan; infinity; neg_infinity ];
  Alcotest.(check int) "refused arcs not added" 0 (Graph.arc_count g);
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0 in
  Alcotest.check_raises "over-push"
    (Invalid_argument "Graph.push: exceeds residual") (fun () ->
      Graph.push g a 2);
  Alcotest.check_raises "flow of backward arc"
    (Invalid_argument "Graph.flow: backward arc") (fun () ->
      ignore (Graph.flow g (a lxor 1)))

let test_graph_iter_from () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0 in
  let b = Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0 in
  let seen = ref [] in
  Graph.iter_arcs_from g 0 (fun arc -> seen := arc :: !seen);
  Alcotest.(check (list int)) "both forward arcs, oldest last" [ a; b ]
    !seen

(* ------------------------------------------------------------- Node_heap *)

(* The heap reads each key from the caller's label array, as Dijkstra's
   [dist]; [push_key] writes the label, then pushes. *)
let push_key h keys v k =
  keys.(v) <- k;
  Node_heap.push h ~keys v

let test_node_heap_basic () =
  let h = Node_heap.create ~n:5 and keys = Array.make 5 infinity in
  Alcotest.(check bool) "empty" true (Node_heap.is_empty h);
  push_key h keys 3 2.5;
  push_key h keys 1 1.0;
  push_key h keys 4 4.0;
  Alcotest.(check bool) "mem" true (Node_heap.mem h 3);
  Alcotest.(check bool) "not mem" false (Node_heap.mem h 0);
  Alcotest.(check int) "size" 3 (Node_heap.size h);
  Alcotest.(check int) "min first" 1 (Node_heap.pop h);
  Alcotest.(check int) "then 3" 3 (Node_heap.pop h);
  Alcotest.(check int) "then 4" 4 (Node_heap.pop h);
  Alcotest.(check int) "exhausted" (-1) (Node_heap.pop h);
  Alcotest.check_raises "bad node"
    (Invalid_argument "Node_heap: node out of range") (fun () ->
      Node_heap.push h ~keys 5)

let test_node_heap_decrease () =
  let h = Node_heap.create ~n:4 and keys = Array.make 4 infinity in
  push_key h keys 0 5.0;
  push_key h keys 1 3.0;
  push_key h keys 2 4.0;
  push_key h keys 0 1.0;  (* decrease-key *)
  push_key h keys 1 9.0;  (* increase: must be ignored *)
  Alcotest.(check int) "decreased node wins" 0 (Node_heap.pop h);
  Alcotest.(check int) "increase ignored" 1 (Node_heap.pop h);
  Alcotest.(check int) "then the untouched node" 2 (Node_heap.pop h)

let test_node_heap_clear_reuse () =
  let h = Node_heap.create ~n:3 and keys = Array.make 3 infinity in
  push_key h keys 2 1.0;
  Node_heap.clear h;
  Alcotest.(check bool) "cleared" true (Node_heap.is_empty h);
  Alcotest.(check bool) "mem reset" false (Node_heap.mem h 2);
  push_key h keys 2 7.0;
  Alcotest.(check int) "reusable" 2 (Node_heap.pop h);
  Alcotest.(check int) "then empty" (-1) (Node_heap.pop h)

let prop_node_heap_sorts =
  QCheck2.Test.make ~name:"node heap pops keys in ascending order" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 32 in
      let* keys = array_size (return n) (float_range 0.0 100.0) in
      return (n, keys))
    (fun (n, keys) ->
      let h = Node_heap.create ~n in
      Array.iteri (fun v _ -> Node_heap.push h ~keys v) keys;
      let rec drain last =
        match Node_heap.pop h with
        | -1 -> true
        | v -> keys.(v) >= last && drain keys.(v)
      in
      drain neg_infinity)

(* Tie order: Dijkstra's predecessors, and so every MCF arrangement, hang
   on which of several equal-key nodes pops first, and most labels on an
   LTC batch network tie at 0.0.  One random script drives the keyed heap
   and the swap-based oracle it replaced; the popped nodes must agree one
   for one.  Keys come from a handful of values, mostly 0.0. *)
type heap_op = Push of int * float | Pop | Clear

let heap_script_gen =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    let key =
      frequency
        [
          (8, return 0.0);
          (2, return 0.5);
          (1, return 1.0);
          (1, return 2.5);
          (1, float_range 0.0 3.0);
        ]
    in
    let op =
      frequency
        [
          (6, map2 (fun v k -> Push (v, k)) (int_range 0 (n - 1)) key);
          (3, return Pop);
          (1, return Clear);
        ]
    in
    let* ops = list_size (int_range 0 300) op in
    return (n, ops))

let prop_node_heap_matches_oracle =
  QCheck2.Test.make ~name:"node heap pops in the oracle's order, ties included"
    ~count:500 heap_script_gen (fun (n, ops) ->
      let h = Node_heap.create ~n and keys = Array.make n infinity in
      let o = Heap_oracle.create ~n in
      let pops = ref 0 in
      let step = function
        | Push (v, k) ->
          push_key h keys v k;
          Heap_oracle.push_or_decrease o v k;
          true
        | Clear ->
          Node_heap.clear h;
          Heap_oracle.clear o;
          true
        | Pop ->
          incr pops;
          let want =
            match Heap_oracle.pop_min o with Some (v, _) -> v | None -> -1
          in
          let got = Node_heap.pop h in
          if got <> want then
            QCheck2.Test.fail_reportf "pop %d: heap %d, oracle %d" !pops got
              want;
          true
      in
      List.for_all step ops
      (* drain: what is still queued must leave in the same order too *)
      && List.for_all step (List.init n (fun _ -> Pop)))

(* ------------------------------------------------------------------ Mcmf *)

(* Two units from 0 to 3 over parallel middle arcs of different costs. *)
let test_mcmf_prefers_cheap_path () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:5.0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:1.0);
  let r = Mcmf.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow" 2 r.Mcmf.flow;
  check_float "total cost" 6.0 r.Mcmf.cost

let test_mcmf_negative_costs () =
  (* The LTC-style network: all middle arcs carry negative cost. *)
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:0.0);
  let cheap = Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.9) in
  let dear = Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.4) in
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:0.0);
  let r = Mcmf.run g ~source:0 ~sink:3 in
  (* Sink capacity admits one unit; it must travel the -0.9 arc. *)
  Alcotest.(check int) "one unit" 1 r.Mcmf.flow;
  check_float "picked min cost" (-0.9) r.Mcmf.cost;
  Alcotest.(check int) "cheap arc used" 1 (Graph.flow g cheap);
  Alcotest.(check int) "dear arc unused" 0 (Graph.flow g dear)

let test_mcmf_rerouting () =
  (* Classic residual test: the cheap greedy path must be partially undone
     to reach the true optimum. *)
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:1.0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:1.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:1.0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:4.0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:2 ~cost:1.0);
  let r = Mcmf.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow 3" 3 r.Mcmf.flow;
  (* Units: 0-1-3 (2), 0-1-2-3 (3), 0-2-3 (5) = 10. *)
  check_float "optimal cost" 10.0 r.Mcmf.cost

let test_mcmf_max_flow_cap () =
  let g = Graph.create ~n:2 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:10 ~cost:1.0);
  let r = Mcmf.run ~max_flow:4 g ~source:0 ~sink:1 in
  Alcotest.(check int) "capped" 4 r.Mcmf.flow;
  check_float "cost" 4.0 r.Mcmf.cost

let test_mcmf_disconnected () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:1.0);
  let r = Mcmf.run g ~source:0 ~sink:2 in
  Alcotest.(check int) "no flow" 0 r.Mcmf.flow

let test_mcmf_invalid () =
  let g = Graph.create ~n:2 in
  Alcotest.check_raises "source=sink"
    (Invalid_argument "Mcmf.run: source = sink") (fun () ->
      ignore (Mcmf.run g ~source:0 ~sink:0))

(* The solver's work counters, pinned on a fixed graph: three unit paths
   0 -> k -> 4 of costs -1.0, -0.9 and -0.8.  Traced by hand, the four
   passes (three augmenting, one that finds the sink unreachable) scan
   9 + 7 + 5 + 3 arcs out of settled nodes and lower 5 + 4 + 2 + 0
   labels; the first pass's 5 depends on the heap popping node 1 before
   node 2 at their tied key 0.0. *)
let test_mcmf_work_counters () =
  let module M = Ltc_util.Metrics in
  let counter name = M.counter ~labels:[ ("solver", "sspa") ] name in
  let names =
    [
      "ltc_flow_mcmf_arcs_scanned_total";
      "ltc_flow_mcmf_relaxations_total";
      "ltc_flow_mcmf_dijkstra_passes_total";
      "ltc_flow_mcmf_rounds_total";
    ]
  in
  let g = Graph.create ~n:5 in
  for i = 0 to 2 do
    ignore
      (Graph.add_arc g ~src:0 ~dst:(1 + i) ~cap:1
         ~cost:(-1.0 +. (0.1 *. float_of_int i)));
    ignore (Graph.add_arc g ~src:(1 + i) ~dst:4 ~cap:1 ~cost:0.0)
  done;
  M.set_enabled true;
  let before = List.map (fun n -> M.Counter.value (counter n)) names in
  let r =
    Fun.protect
      ~finally:(fun () -> M.set_enabled false)
      (fun () -> Mcmf.run g ~source:0 ~sink:4)
  in
  let delta =
    List.map2 (fun n b -> M.Counter.value (counter n) - b) names before
  in
  Alcotest.(check int) "three units" 3 r.Mcmf.flow;
  Alcotest.(check (list int)) "arcs scanned, relaxations, passes, rounds"
    [ 24; 11; 4; 3 ] delta

(* Brute-force reference: minimum-cost assignment on small bipartite
   instances, compared against the SSPA result. *)
let brute_min_cost_assignment ~n_left ~n_right ~cap_left ~cap_right ~costs =
  (* Enumerate all ways to pick a set of (i, j) pairs respecting caps and
     maximising routed units first, then minimising cost. *)
  let pairs =
    List.concat
      (List.init n_left (fun i -> List.init n_right (fun j -> (i, j))))
  in
  let best_units = ref 0 in
  let best_cost = ref infinity in
  let load_l = Array.make n_left 0 and load_r = Array.make n_right 0 in
  let rec go remaining units cost =
    if units > !best_units || (units = !best_units && cost < !best_cost) then begin
      best_units := units;
      best_cost := cost
    end;
    match remaining with
    | [] -> ()
    | (i, j) :: rest ->
      go rest units cost;
      if load_l.(i) < cap_left && load_r.(j) < cap_right then begin
        load_l.(i) <- load_l.(i) + 1;
        load_r.(j) <- load_r.(j) + 1;
        go rest (units + 1) (cost +. costs.(i).(j));
        load_l.(i) <- load_l.(i) - 1;
        load_r.(j) <- load_r.(j) - 1
      end
  in
  go pairs 0 0.0;
  (!best_units, !best_cost)

let prop_mcmf_matches_brute =
  let gen =
    QCheck2.Gen.(
      let* n_left = int_range 1 3 in
      let* n_right = int_range 1 3 in
      let* cap_left = int_range 1 2 in
      let* cap_right = int_range 1 2 in
      let* costs =
        array_size (return n_left)
          (array_size (return n_right) (float_range (-1.0) 0.0))
      in
      return (n_left, n_right, cap_left, cap_right, costs))
  in
  QCheck2.Test.make ~name:"SSPA = brute force on bipartite instances"
    ~count:150 gen
    (fun (n_left, n_right, cap_left, cap_right, costs) ->
      let n = n_left + n_right + 2 in
      let source = 0 and sink = n - 1 in
      let g = Graph.create ~n in
      for i = 0 to n_left - 1 do
        ignore (Graph.add_arc g ~src:source ~dst:(1 + i) ~cap:cap_left ~cost:0.0)
      done;
      for i = 0 to n_left - 1 do
        for j = 0 to n_right - 1 do
          ignore
            (Graph.add_arc g ~src:(1 + i) ~dst:(1 + n_left + j) ~cap:1
               ~cost:costs.(i).(j))
        done
      done;
      for j = 0 to n_right - 1 do
        ignore
          (Graph.add_arc g ~src:(1 + n_left + j) ~dst:sink ~cap:cap_right
             ~cost:0.0)
      done;
      let r = Mcmf.run g ~source ~sink in
      let units, cost =
        brute_min_cost_assignment ~n_left ~n_right ~cap_left ~cap_right ~costs
      in
      r.Mcmf.flow = units && Float.abs (r.Mcmf.cost -. cost) < 1e-6)

let prop_mcmf_flow_conservation =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* arcs =
        (* Non-negative costs: random topologies with negative arcs can
           contain negative cycles, which Mcmf rejects by design. *)
        list_size (int_range 1 12)
          (triple (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
             (int_range 0 3) (float_range 0.0 2.0))
      in
      return (n, arcs))
  in
  QCheck2.Test.make ~name:"flow conservation at inner nodes" ~count:150 gen
    (fun (n, arcs) ->
      let g = Graph.create ~n in
      List.iter
        (fun ((src, dst), cap, cost) ->
          if src <> dst then ignore (Graph.add_arc g ~src ~dst ~cap ~cost))
        arcs;
      let source = 0 and sink = n - 1 in
      let r = Mcmf.run g ~source ~sink in
      let balance = Array.make n 0 in
      Graph.iter_forward_arcs g (fun a ->
          let f = Graph.flow g a in
          balance.(Graph.src g a) <- balance.(Graph.src g a) - f;
          balance.(Graph.dst g a) <- balance.(Graph.dst g a) + f);
      let ok = ref (balance.(source) = -r.Mcmf.flow && balance.(sink) = r.Mcmf.flow) in
      for v = 0 to n - 1 do
        if v <> source && v <> sink && balance.(v) <> 0 then ok := false
      done;
      !ok)

(* ------------------------------------------------- SPFA oracle (test/spfa) *)

let random_bipartite_gen =
  QCheck2.Gen.(
    let* n_left = int_range 1 4 in
    let* n_right = int_range 1 4 in
    let* cap_left = int_range 1 3 in
    let* cap_right = int_range 1 3 in
    let* costs =
      array_size (return n_left)
        (array_size (return n_right) (float_range (-1.0) 0.0))
    in
    return (n_left, n_right, cap_left, cap_right, costs))

let build_bipartite (n_left, n_right, cap_left, cap_right, costs) =
  let n = n_left + n_right + 2 in
  let source = 0 and sink = n - 1 in
  let g = Graph.create ~n in
  for i = 0 to n_left - 1 do
    ignore (Graph.add_arc g ~src:source ~dst:(1 + i) ~cap:cap_left ~cost:0.0)
  done;
  for i = 0 to n_left - 1 do
    for j = 0 to n_right - 1 do
      ignore
        (Graph.add_arc g ~src:(1 + i) ~dst:(1 + n_left + j) ~cap:1
           ~cost:costs.(i).(j))
    done
  done;
  for j = 0 to n_right - 1 do
    ignore
      (Graph.add_arc g ~src:(1 + n_left + j) ~dst:sink ~cap:cap_right ~cost:0.0)
  done;
  (g, source, sink)

let prop_spfa_agrees_with_sspa =
  QCheck2.Test.make ~name:"SPFA and SSPA solvers agree" ~count:200
    random_bipartite_gen
    (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r = Mcmf.run g1 ~source ~sink in
      let flow, cost = Spfa.run g2 ~source ~sink in
      r.Mcmf.flow = flow && Float.abs (r.Mcmf.cost -. cost) < 1e-6)

let test_spfa_negative_costs () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.9));
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.4));
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:0.0);
  let flow, cost = Spfa.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "one unit" 1 flow;
  check_float "min cost" (-0.9) cost

(* ----------------------------------------------------------------- Dinic *)

let test_dinic_simple () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:3 ~cost:0.0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:2 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~cap:2 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:0.0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:3 ~cost:0.0);
  Alcotest.(check int) "max flow 5" 5 (Dinic.max_flow g ~source:0 ~sink:3)

let test_dinic_disconnected () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:0.0);
  Alcotest.(check int) "no flow" 0 (Dinic.max_flow g ~source:0 ~sink:2)

let general_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* arcs =
      list_size (int_range 1 14)
        (triple (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
           (int_range 0 4) (float_range 0.0 3.0))
    in
    return (n, arcs))

let build_general (n, arcs) =
  let g = Graph.create ~n in
  List.iter
    (fun ((src, dst), cap, cost) ->
      if src <> dst then ignore (Graph.add_arc g ~src ~dst ~cap ~cost))
    arcs;
  g

let prop_spfa_agrees_on_general_graphs =
  QCheck2.Test.make ~name:"SPFA = SSPA on general non-negative graphs"
    ~count:150 general_graph_gen
    (fun input ->
      let n, _ = input in
      let g1 = build_general input in
      let g2 = build_general input in
      let r = Mcmf.run g1 ~source:0 ~sink:(n - 1) in
      let flow, cost = Spfa.run g2 ~source:0 ~sink:(n - 1) in
      r.Mcmf.flow = flow && Float.abs (r.Mcmf.cost -. cost) < 1e-6)

let prop_dinic_on_general_graphs =
  QCheck2.Test.make ~name:"Dinic = SSPA flow value on general graphs"
    ~count:150 general_graph_gen
    (fun input ->
      let n, _ = input in
      let g1 = build_general input in
      let g2 = build_general input in
      let r = Mcmf.run g1 ~source:0 ~sink:(n - 1) in
      Dinic.max_flow g2 ~source:0 ~sink:(n - 1) = r.Mcmf.flow)

let prop_dinic_agrees_with_mcmf_flow =
  QCheck2.Test.make ~name:"Dinic max flow = SSPA max flow" ~count:200
    random_bipartite_gen
    (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r = Mcmf.run g1 ~source ~sink in
      Dinic.max_flow g2 ~source ~sink = r.Mcmf.flow)

(* -------------------------------------------- arena / workspace reuse *)

let test_graph_clear_reuse () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:1.0 in
  Graph.push g a 2;
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:0.0);
  Graph.clear g ~n:2;
  Alcotest.(check int) "nodes" 2 (Graph.node_count g);
  Alcotest.(check int) "no arcs" 0 (Graph.arc_count g);
  let seen = ref [] in
  Graph.iter_arcs_from g 0 (fun arc -> seen := arc :: !seen);
  Alcotest.(check (list int)) "adjacency reset" [] !seen;
  let b = Graph.add_arc g ~src:0 ~dst:1 ~cap:3 ~cost:0.0 in
  Alcotest.(check int) "arc ids restart at 0" 0 b;
  Alcotest.(check int) "fresh residual" 3 (Graph.residual g b);
  Alcotest.(check int) "fresh reverse residual" 0 (Graph.residual g (b lxor 1));
  (* Growing clear: nodes beyond the old count start with empty adjacency. *)
  Graph.clear g ~n:5;
  let seen = ref [] in
  Graph.iter_arcs_from g 4 (fun arc -> seen := arc :: !seen);
  Alcotest.(check (list int)) "new nodes empty" [] !seen;
  Alcotest.check_raises "bad n"
    (Invalid_argument "Graph.clear: n must be positive") (fun () ->
      Graph.clear g ~n:0)

let test_node_heap_grow () =
  let h = Node_heap.create ~n:2 and keys = Array.make 10 infinity in
  push_key h keys 1 3.0;
  Node_heap.ensure_capacity h ~n:10;
  Alcotest.(check bool) "capacity grew" true (Node_heap.capacity h >= 10);
  push_key h keys 7 1.0;
  Alcotest.(check int) "new node usable" 7 (Node_heap.pop h);
  Alcotest.(check int) "old entry intact" 1 (Node_heap.pop h)

let test_workspace_growth () =
  let ws = Mcmf.create_workspace ~hint:2 () in
  Alcotest.(check bool) "hint respected" true (Mcmf.workspace_capacity ws >= 2);
  let input =
    (3, 3, 2, 2, [| [| -0.5; -0.2; -0.9 |];
                    [| -0.1; -0.8; -0.3 |];
                    [| -0.7; -0.4; -0.6 |] |])
  in
  let g1, source, sink = build_bipartite input in
  let r1 = Mcmf.run g1 ~workspace:ws ~source ~sink in
  Alcotest.(check bool) "grew to the graph" true
    (Mcmf.workspace_capacity ws >= Graph.node_count g1);
  (* Same solve on the same workspace must be oblivious to stale labels. *)
  let g2, _, _ = build_bipartite input in
  let r2 = Mcmf.run g2 ~workspace:ws ~source ~sink in
  Alcotest.(check int) "flow stable across reuse" r1.Mcmf.flow r2.Mcmf.flow;
  check_float "cost stable across reuse" r1.Mcmf.cost r2.Mcmf.cost

(* The Dijkstra passes of a warm solve allocate nothing: the heap is keyed
   on the label array, so no pop or push boxes a float.  What a round
   still allocates is its bottleneck and augment closures (16 words a
   round when measured); the float-argument heap this replaced allocated
   several words per pop and per push. *)
let test_warm_solve_allocation () =
  let rng = Ltc_util.Rng.create ~seed:5 in
  let costs =
    Array.init 40 (fun _ ->
        Array.init 60 (fun _ -> -.Ltc_util.Rng.float rng 1.0))
  in
  let input = (40, 60, 2, 2, costs) in
  let ws = Mcmf.create_workspace () in
  let g, source, sink = build_bipartite input in
  ignore (Mcmf.run g ~workspace:ws ~source ~sink);
  let g, _, _ = build_bipartite input in
  let before = Gc.minor_words () in
  let r = Mcmf.run g ~workspace:ws ~source ~sink in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every unit routed" 80 r.Mcmf.flow;
  if words > 32.0 *. float_of_int r.Mcmf.rounds then
    Alcotest.failf "%.0f minor words over %d rounds" words r.Mcmf.rounds

(* One workspace shared across every generated case: reuse itself is under
   test.  Exact (=) float comparisons are deliberate — stale labels and
   potentials in a reused workspace must not change a single operation of
   the solve. *)
let prop_workspace_reuse_exact =
  let ws = Mcmf.create_workspace () in
  QCheck2.Test.make
    ~name:"workspace reuse = fresh Bellman-Ford solve, exactly"
    ~count:300 random_bipartite_gen (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r1 = Mcmf.run g1 ~source ~sink in
      let r2 = Mcmf.run g2 ~workspace:ws ~source ~sink in
      r1.Mcmf.flow = r2.Mcmf.flow
      && r1.Mcmf.cost = r2.Mcmf.cost
      && r1.Mcmf.rounds = r2.Mcmf.rounds)

(* --------------------------------------------------------------- Anytime *)

let test_budget_validation () =
  let g = Graph.create ~n:2 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0);
  Alcotest.check_raises "negative rounds"
    (Invalid_argument "Mcmf.run: negative round budget") (fun () ->
      ignore (Mcmf.run g ~budget:(Mcmf.Rounds (-1)) ~source:0 ~sink:1))

let test_budget_rounds () =
  (* Three parallel unit paths: each augmenting round routes one. *)
  let build () =
    let g = Graph.create ~n:5 in
    for i = 0 to 2 do
      ignore
        (Graph.add_arc g ~src:0 ~dst:(1 + i) ~cap:1
           ~cost:(-1.0 +. (0.1 *. float_of_int i)));
      ignore (Graph.add_arc g ~src:(1 + i) ~dst:4 ~cap:1 ~cost:0.0)
    done;
    g
  in
  let r0 = Mcmf.run (build ()) ~budget:(Mcmf.Rounds 0) ~source:0 ~sink:4 in
  Alcotest.(check int) "zero budget routes nothing" 0 r0.Mcmf.flow;
  Alcotest.(check bool) "zero budget exhausts" true r0.Mcmf.exhausted;
  let r1 = Mcmf.run (build ()) ~budget:(Mcmf.Rounds 1) ~source:0 ~sink:4 in
  Alcotest.(check int) "one round, one unit" 1 r1.Mcmf.flow;
  check_float "cheapest path first" (-1.0) r1.Mcmf.cost;
  Alcotest.(check bool) "cut short" true r1.Mcmf.exhausted;
  let exact = Mcmf.run (build ()) ~source:0 ~sink:4 in
  let lavish =
    Mcmf.run (build ()) ~budget:(Mcmf.Rounds max_int) ~source:0 ~sink:4
  in
  Alcotest.(check int) "lavish budget = exact flow" exact.Mcmf.flow
    lavish.Mcmf.flow;
  check_float "lavish budget = exact cost" exact.Mcmf.cost lavish.Mcmf.cost;
  Alcotest.(check bool) "lavish budget never fires" false lavish.Mcmf.exhausted

(* Budgeted runs return a prefix of the exact augmentation sequence: the k
   units a budget managed to route cost exactly what an exact [max_flow:k]
   solve pays (SSPA prefix-optimality).  Exact float equality is deliberate
   — both runs perform the identical arithmetic. *)
let prop_anytime_prefix_optimal =
  QCheck2.Test.make ~name:"anytime budget yields a min-cost prefix flow"
    ~count:200
    QCheck2.Gen.(pair random_bipartite_gen (int_range 0 4))
    (fun (input, rounds) ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let budgeted =
        Mcmf.run g1 ~budget:(Mcmf.Rounds rounds) ~source ~sink
      in
      let prefix = Mcmf.run g2 ~max_flow:budgeted.Mcmf.flow ~source ~sink in
      budgeted.Mcmf.flow = prefix.Mcmf.flow
      && budgeted.Mcmf.cost = prefix.Mcmf.cost)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "flow.graph",
      [
        Alcotest.test_case "basics" `Quick test_graph_basics;
        Alcotest.test_case "push/cancel" `Quick test_graph_push_cancel;
        Alcotest.test_case "invalid args" `Quick test_graph_invalid;
        Alcotest.test_case "iteration" `Quick test_graph_iter_from;
      ] );
    ( "flow.node_heap",
      [
        Alcotest.test_case "basic" `Quick test_node_heap_basic;
        Alcotest.test_case "decrease-key" `Quick test_node_heap_decrease;
        Alcotest.test_case "clear and reuse" `Quick test_node_heap_clear_reuse;
        qcheck prop_node_heap_sorts;
        qcheck prop_node_heap_matches_oracle;
      ] );
    ( "flow.mcmf",
      [
        Alcotest.test_case "prefers cheap path" `Quick
          test_mcmf_prefers_cheap_path;
        Alcotest.test_case "negative costs" `Quick test_mcmf_negative_costs;
        Alcotest.test_case "rerouting through residuals" `Quick
          test_mcmf_rerouting;
        Alcotest.test_case "max_flow cap" `Quick test_mcmf_max_flow_cap;
        Alcotest.test_case "disconnected" `Quick test_mcmf_disconnected;
        Alcotest.test_case "invalid args" `Quick test_mcmf_invalid;
        Alcotest.test_case "work counters" `Quick test_mcmf_work_counters;
        qcheck prop_mcmf_matches_brute;
        qcheck prop_mcmf_flow_conservation;
      ] );
    ( "flow.mcmf_spfa",
      [
        Alcotest.test_case "negative costs" `Quick test_spfa_negative_costs;
        qcheck prop_spfa_agrees_with_sspa;
        qcheck prop_spfa_agrees_on_general_graphs;
      ] );
    ( "flow.dinic",
      [
        Alcotest.test_case "textbook network" `Quick test_dinic_simple;
        Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
        qcheck prop_dinic_agrees_with_mcmf_flow;
        qcheck prop_dinic_on_general_graphs;
      ] );
    ( "flow.reuse",
      [
        Alcotest.test_case "graph clear" `Quick test_graph_clear_reuse;
        Alcotest.test_case "node heap growth" `Quick test_node_heap_grow;
        Alcotest.test_case "workspace growth" `Quick test_workspace_growth;
        Alcotest.test_case "warm solve allocates per round only" `Quick
          test_warm_solve_allocation;
        qcheck prop_workspace_reuse_exact;
      ] );
    ( "flow.anytime",
      [
        Alcotest.test_case "budget validation" `Quick test_budget_validation;
        Alcotest.test_case "round budgets" `Quick test_budget_rounds;
        qcheck prop_anytime_prefix_optimal;
      ] );
  ]
