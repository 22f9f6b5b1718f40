type series = {
  name : string;
  points : (float * float) list;
}

let markers = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

let finite (x, y) = Float.is_finite x && Float.is_finite y

let render ?(width = 64) ?(height = 16) ?title series =
  let series =
    List.filter_map
      (fun s ->
        match List.filter finite s.points with
        | [] -> None
        | points ->
          Some { s with points = List.sort compare points })
      series
  in
  if series = [] then ""
  else begin
    let all = List.concat_map (fun s -> s.points) series in
    let xs = List.map fst all and ys = List.map snd all in
    let fold f = function x :: rest -> List.fold_left f x rest | [] -> 0.0 in
    let min_x = fold Float.min xs and max_x = fold Float.max xs in
    let min_y = fold Float.min ys and max_y = fold Float.max ys in
    (* Degenerate ranges still draw: widen them symmetrically. *)
    let span lo hi = if hi -. lo <= 0.0 then (lo -. 1.0, hi +. 1.0) else (lo, hi) in
    let min_x, max_x = span min_x max_x in
    let min_y, max_y = span min_y max_y in
    let grid = Array.make_matrix height width ' ' in
    let col x =
      let c =
        int_of_float
          (Float.round ((x -. min_x) /. (max_x -. min_x) *. float_of_int (width - 1)))
      in
      max 0 (min (width - 1) c)
    in
    let row y =
      let r =
        int_of_float
          (Float.round
             ((y -. min_y) /. (max_y -. min_y) *. float_of_int (height - 1)))
      in
      (* Row 0 is the top line. *)
      height - 1 - max 0 (min (height - 1) r)
    in
    let draw_segment (x0, y0) (x1, y1) =
      (* Bresenham-ish: step along the longer axis. *)
      let c0 = col x0 and r0 = row y0 and c1 = col x1 and r1 = row y1 in
      let steps = max (abs (c1 - c0)) (abs (r1 - r0)) in
      for k = 1 to steps - 1 do
        let t = float_of_int k /. float_of_int steps in
        let c = c0 + int_of_float (Float.round (t *. float_of_int (c1 - c0))) in
        let r = r0 + int_of_float (Float.round (t *. float_of_int (r1 - r0))) in
        if grid.(r).(c) = ' ' then grid.(r).(c) <- '.'
      done
    in
    List.iteri
      (fun i s ->
        let marker = markers.(i mod Array.length markers) in
        (match s.points with
        | [] -> ()
        | first :: rest ->
          ignore
            (List.fold_left
               (fun prev next ->
                 draw_segment prev next;
                 next)
               first rest));
        List.iter (fun (x, y) -> grid.(row y).(col x) <- marker) s.points)
      series;
    let buf = Buffer.create ((width + 16) * (height + 4)) in
    (match title with
    | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
    | None -> ());
    let y_label r =
      if r = 0 then Printf.sprintf "%10.4g |" max_y
      else if r = height - 1 then Printf.sprintf "%10.4g |" min_y
      else String.make 10 ' ' ^ " |"
    in
    Array.iteri
      (fun r line ->
        Buffer.add_string buf (y_label r);
        Buffer.add_string buf (String.init width (Array.get line));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (String.make 11 ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%s%-10.4g%s%10.4g\n" (String.make 12 ' ') min_x
         (String.make (max 1 (width - 20)) ' ')
         max_x);
    Buffer.add_string buf "  legend: ";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_char buf markers.(i mod Array.length markers);
        Buffer.add_char buf '=';
        Buffer.add_string buf s.name)
      series;
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
