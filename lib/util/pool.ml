let default_jobs () = Domain.recommended_domain_count ()

(* The calling domain and [min jobs n - 1] spawned ones claim indices from
   one cursor.  A claimed index above a recorded failure is abandoned and
   its domain stops claiming; one below it still runs.  The lowest failing
   index is therefore always claimed and run, so the exception re-raised
   does not depend on how the indices were interleaved. *)
let run ~jobs n f =
  if n < 0 then invalid_arg "Pool.run: negative range";
  if jobs <= 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec record i e bt =
      match Atomic.get failure with
      | Some (j, _, _) when j < i -> ()
      | seen ->
        if not (Atomic.compare_and_set failure seen (Some (i, e, bt))) then
          record i e bt
    in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then
        match Atomic.get failure with
        | Some (j, _, _) when j < i -> ()
        | _ ->
          (match f i with
          | v -> results.(i) <- Some v
          | exception e -> record i e (Printexc.get_raw_backtrace ()));
          claim ()
    in
    let domains = Array.init (min jobs n - 1) (fun _ -> Domain.spawn claim) in
    claim ();
    Array.iter Domain.join domains;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end
