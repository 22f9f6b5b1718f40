open Ltc_geo

let check_float = Alcotest.(check (float 1e-9))

let point_gen ~side =
  QCheck2.Gen.(
    map2
      (fun x y -> Point.make ~x ~y)
      (float_range 0.0 side) (float_range 0.0 side))

let points_gen ~side = QCheck2.Gen.(list_size (int_range 0 200) (point_gen ~side))

let brute_within points ~center ~radius =
  let r_sq = radius *. radius in
  points
  |> List.mapi (fun i p -> (i, p))
  |> List.filter (fun (_, p) -> Point.distance_sq p center <= r_sq)
  |> List.map fst

(* ----------------------------------------------------------------- Point *)

let test_point_distance () =
  let a = Point.make ~x:0.0 ~y:0.0 and b = Point.make ~x:3.0 ~y:4.0 in
  check_float "3-4-5" 5.0 (Point.distance a b);
  check_float "squared" 25.0 (Point.distance_sq a b);
  check_float "self" 0.0 (Point.distance a a)

let test_point_equal () =
  let a = Point.make ~x:1.0 ~y:2.0 in
  Alcotest.(check bool) "equal" true (Point.equal a (Point.make ~x:1.0 ~y:2.0));
  Alcotest.(check bool) "not equal" false
    (Point.equal a (Point.make ~x:1.0 ~y:2.1))

(* ------------------------------------------------------------------ Bbox *)

let test_bbox_inverted () =
  Alcotest.check_raises "inverted" (Invalid_argument "Bbox.make: inverted box")
    (fun () ->
      ignore (Bbox.make ~min_x:1.0 ~min_y:0.0 ~max_x:0.0 ~max_y:1.0))

let test_bbox_of_points () =
  let b =
    Bbox.of_points
      [ Point.make ~x:2.0 ~y:5.0; Point.make ~x:(-1.0) ~y:3.0; Point.make ~x:0.0 ~y:9.0 ]
  in
  check_float "min_x" (-1.0) b.Bbox.min_x;
  check_float "max_y" 9.0 b.Bbox.max_y

(* ------------------------------------------------------------ Grid_index *)

(* The sorted fill, read back as a list. *)
let grid_within g ~center ~radius =
  let buf = Array.make (Grid_index.length g) 0 in
  let n = Grid_index.fill_within_sorted g ~center ~radius buf 0 in
  Array.to_list (Array.sub buf 0 n)

let test_grid_basic () =
  let points =
    [| Point.make ~x:1.0 ~y:1.0; Point.make ~x:5.0 ~y:5.0; Point.make ~x:9.0 ~y:9.0 |]
  in
  let g = Grid_index.build ~world:(Bbox.square ~side:10.0) ~cell:2.0 points in
  Alcotest.(check int) "length" 3 (Grid_index.length g);
  Alcotest.(check (list int)) "radius 1 around (5,5)" [ 1 ]
    (grid_within g ~center:(Point.make ~x:5.0 ~y:5.0) ~radius:1.0);
  Alcotest.(check (list int)) "radius 7 catches corners" [ 0; 1; 2 ]
    (grid_within g ~center:(Point.make ~x:5.0 ~y:5.0) ~radius:7.0)

let test_grid_invalid_cell () =
  Alcotest.check_raises "cell 0"
    (Invalid_argument "Grid_index.build: cell must be positive") (fun () ->
      ignore (Grid_index.build ~world:(Bbox.square ~side:1.0) ~cell:0.0 [||]))

(* A cell far smaller than the spread would need 10^12 cells; the build
   widens them to its budget and the queries stay exact. *)
let test_grid_cell_budget () =
  let rng = Ltc_util.Rng.create ~seed:5 in
  let points =
    Array.init 300 (fun _ ->
        Point.make ~x:(Ltc_util.Rng.float rng 100.0)
          ~y:(Ltc_util.Rng.float rng 100.0))
  in
  let g = Grid_index.build ~world:(Bbox.square ~side:100.0) ~cell:1e-4 points in
  Alcotest.(check bool) "at most 4096 cells" true
    (Grid_index.memory_words g <= 4097 + (4 * 300));
  Array.iteri
    (fun i center ->
      Alcotest.(check (list int)) "radius 1e-4 finds the point" [ i ]
        (grid_within g ~center ~radius:1e-4);
      Alcotest.(check (list int)) "radius 9"
        (brute_within (Array.to_list points) ~center ~radius:9.0)
        (grid_within g ~center ~radius:9.0))
    points

let test_grid_out_of_world_points () =
  (* Points outside the declared world are clamped into boundary cells and
     must still be findable. *)
  let points = [| Point.make ~x:15.0 ~y:15.0 |] in
  let g = Grid_index.build ~world:(Bbox.square ~side:10.0) ~cell:3.0 points in
  Alcotest.(check (list int)) "found" [ 0 ]
    (grid_within g ~center:(Point.make ~x:15.0 ~y:15.0) ~radius:0.5)

let prop_grid_matches_brute =
  QCheck2.Test.make ~name:"grid query = brute force" ~count:200
    QCheck2.Gen.(
      triple (points_gen ~side:100.0) (point_gen ~side:100.0)
        (float_range 0.1 40.0))
    (fun (points, center, radius) ->
      let arr = Array.of_list points in
      let g = Grid_index.build ~world:(Bbox.square ~side:100.0) ~cell:10.0 arr in
      grid_within g ~center ~radius
      = brute_within points ~center ~radius)

let prop_grid_count =
  QCheck2.Test.make ~name:"grid count = query length" ~count:100
    QCheck2.Gen.(pair (points_gen ~side:50.0) (point_gen ~side:50.0))
    (fun (points, center) ->
      let arr = Array.of_list points in
      let g = Grid_index.build ~world:(Bbox.square ~side:50.0) ~cell:5.0 arr in
      Grid_index.count_within g ~center ~radius:8.0
      = List.length (grid_within g ~center ~radius:8.0))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "geo.point",
      [
        Alcotest.test_case "distance" `Quick test_point_distance;
        Alcotest.test_case "equal" `Quick test_point_equal;
      ] );
    ( "geo.bbox",
      [
        Alcotest.test_case "inverted raises" `Quick test_bbox_inverted;
        Alcotest.test_case "of_points" `Quick test_bbox_of_points;
      ] );
    ( "geo.grid_index",
      [
        Alcotest.test_case "basic queries" `Quick test_grid_basic;
        Alcotest.test_case "invalid cell" `Quick test_grid_invalid_cell;
        Alcotest.test_case "cell budget" `Quick test_grid_cell_budget;
        Alcotest.test_case "out-of-world points" `Quick
          test_grid_out_of_world_points;
        qcheck prop_grid_matches_brute;
        qcheck prop_grid_count;
      ] );
  ]
