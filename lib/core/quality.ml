type scoring =
  | Hoeffding
  | Sum_accuracy of { threshold : float }

let delta ~epsilon =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Quality.delta: epsilon must lie in (0, 1)";
  2.0 *. log (1.0 /. epsilon)

let threshold scoring ~epsilon =
  match scoring with
  | Hoeffding -> delta ~epsilon
  | Sum_accuracy { threshold } -> threshold

let score scoring model w t =
  match scoring with
  | Hoeffding -> Accuracy.acc_star model w t
  | Sum_accuracy _ -> Accuracy.acc model w t

let vote_weight model w t = (2.0 *. Accuracy.acc model w t) -. 1.0

let majority votes =
  match votes with
  | [] -> None
  | _ ->
    let total =
      List.fold_left
        (fun acc (weight, answer) -> acc +. (weight *. Task.answer_sign answer))
        0.0 votes
    in
    if total > 0.0 then Some Task.Yes
    else if total < 0.0 then Some Task.No
    else None

let hoeffding_error_bound ~acc_star_sum = exp (-.acc_star_sum /. 2.0)

let pp_scoring fmt = function
  | Hoeffding -> Format.fprintf fmt "hoeffding"
  | Sum_accuracy { threshold } -> Format.fprintf fmt "sum-accuracy(>=%g)" threshold
