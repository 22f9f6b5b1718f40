let header ~width ~height =
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\">\n\
     <rect width=\"%d\" height=\"%d\" fill=\"#fcfcf8\"/>\n"
    width height width height width height

(* World-to-pixel transform over the bounding box of all locations, with a
   small margin; y is flipped so north is up. *)
type view = {
  scale : float;
  off_x : float;
  off_y : float;
  height : int;
}

let margin = 20.0

let make_view ~size (instance : Instance.t) =
  let points =
    Array.to_list (Array.map (fun (t : Task.t) -> t.loc) instance.tasks)
    @ Array.to_list
        (Array.map (fun (w : Worker.t) -> w.loc) instance.workers)
  in
  let box =
    match points with
    | [] -> Ltc_geo.Bbox.square ~side:1.0
    | _ -> Ltc_geo.Bbox.of_points points
  in
  let w = Float.max 1e-9 (Ltc_geo.Bbox.width box) in
  let h = Float.max 1e-9 (Ltc_geo.Bbox.height box) in
  let inner = float_of_int size -. (2.0 *. margin) in
  let scale = inner /. Float.max w h in
  let width = int_of_float ((w *. scale) +. (2.0 *. margin)) in
  let height = int_of_float ((h *. scale) +. (2.0 *. margin)) in
  ( { scale; off_x = box.Ltc_geo.Bbox.min_x; off_y = box.Ltc_geo.Bbox.min_y;
      height },
    width,
    height )

let px view (p : Ltc_geo.Point.t) =
  let x = margin +. ((p.x -. view.off_x) *. view.scale) in
  let y =
    float_of_int view.height -. (margin +. ((p.y -. view.off_y) *. view.scale))
  in
  (x, y)

let render ?(size = 800) ?arrangement ?(show_radius = true)
    (instance : Instance.t) =
  let view, width, height = make_view ~size instance in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (header ~width ~height);
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Completion state per task under the given arrangement. *)
  let progress =
    Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
  in
  (match arrangement with
  | None -> ()
  | Some a ->
    List.iter
      (fun (asgn : Arrangement.assignment) ->
        let w = instance.workers.(asgn.worker - 1) in
        Progress.record progress ~task:asgn.task
          ~score:(Instance.score instance w asgn.task))
      (Arrangement.to_list a));
  (* Layer 1: candidate-radius halos. *)
  (match (show_radius, instance.candidate_radius) with
  | true, Some radius ->
    Array.iter
      (fun (t : Task.t) ->
        let x, y = px view t.loc in
        add
          "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"#4a90d9\" \
           fill-opacity=\"0.06\" stroke=\"#4a90d9\" stroke-opacity=\"0.25\" \
           stroke-width=\"0.5\"/>\n"
          x y (radius *. view.scale))
      instance.tasks
  | true, None | false, _ -> ());
  (* Layer 2: workers (under the assignment lines). *)
  Array.iter
    (fun (w : Worker.t) ->
      let x, y = px view w.loc in
      add
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"1.2\" fill=\"#555555\" \
         fill-opacity=\"%.2f\"/>\n"
        x y
        (0.15 +. (0.5 *. Float.max 0.0 (w.accuracy -. 0.5)) /. 0.5))
    instance.workers;
  (* Layer 3: assignments. *)
  (match arrangement with
  | None -> ()
  | Some a ->
    List.iter
      (fun (asgn : Arrangement.assignment) ->
        let w = instance.workers.(asgn.worker - 1) in
        let t = instance.tasks.(asgn.task) in
        let x1, y1 = px view w.loc and x2, y2 = px view t.loc in
        add
          "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
           stroke=\"#e09f3e\" stroke-width=\"0.6\" stroke-opacity=\"0.55\"/>\n"
          x1 y1 x2 y2)
      (Arrangement.to_list a));
  (* Layer 4: tasks on top. *)
  Array.iter
    (fun (t : Task.t) ->
      let x, y = px view t.loc in
      let fill =
        match arrangement with
        | None -> "#4a90d9"
        | Some _ ->
          if Progress.is_complete progress t.id then "#2d9d3a" else "#d0342c"
      in
      add
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"%s\" \
         stroke=\"#ffffff\" stroke-width=\"1\"/>\n"
        x y fill)
    instance.tasks;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save ~path ?size ?arrangement ?show_radius instance =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (render ?size ?arrangement ?show_radius instance))
