(** SVG rendering of instances and arrangements.

    One picture of a spatial-crowdsourcing run says more than any latency
    table: where the POIs sit, where check-ins cluster, which workers served
    which tasks.  [ltc run --svg out.svg] uses this; the output is
    self-contained SVG 1.1 (no external assets), 800 pixels along its
    larger dimension.

    Visual encoding: tasks are circles (green = completed, red = not, by
    the arrangement if one is given) with a light halo showing the
    candidate radius; workers are small dots with opacity scaled by
    historical accuracy; assignments are thin lines from worker to task. *)

val render : ?arrangement:Arrangement.t -> Instance.t -> string
(** The candidate-radius halo is drawn when the instance has a radius. *)

val save : path:string -> ?arrangement:Arrangement.t -> Instance.t -> unit
