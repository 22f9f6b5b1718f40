type t = { min_x : float; min_y : float; max_x : float; max_y : float }

let make ~min_x ~min_y ~max_x ~max_y =
  if min_x > max_x || min_y > max_y then invalid_arg "Bbox.make: inverted box";
  { min_x; min_y; max_x; max_y }

let square ~side = make ~min_x:0.0 ~min_y:0.0 ~max_x:side ~max_y:side

let width t = t.max_x -. t.min_x
let height t = t.max_y -. t.min_y

let of_points = function
  | [] -> invalid_arg "Bbox.of_points: empty list"
  | (p : Point.t) :: rest ->
    List.fold_left
      (fun acc (q : Point.t) ->
        {
          min_x = Float.min acc.min_x q.x;
          min_y = Float.min acc.min_y q.y;
          max_x = Float.max acc.max_x q.x;
          max_y = Float.max acc.max_y q.y;
        })
      { min_x = p.x; min_y = p.y; max_x = p.x; max_y = p.y }
      rest
