(* Statistical summaries with uncertainty: bootstrap confidence
   intervals for means and percentiles of small trial sets (the Table 2
   downtime distributions come from tens of trials per cell, so point
   estimates deserve error bars). *)

type ci = { point : float; lo : float; hi : float }

let pp_ci ?(scale = 1.0) fmt ci =
  Format.fprintf fmt "%.0f [%.0f, %.0f]" (ci.point /. scale) (ci.lo /. scale)
    (ci.hi /. scale)

let ci_to_string ?(scale = 1.0) ci =
  Format.asprintf "%a" (pp_ci ~scale) ci

let mean values =
  match Array.length values with
  | 0 -> invalid_arg "Summary.mean: empty"
  | n -> Array.fold_left ( +. ) 0.0 values /. float_of_int n

let percentile values p =
  match Array.length values with
  | 0 -> invalid_arg "Summary.percentile: empty"
  | n ->
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Percentile-method bootstrap over [resamples] draws. *)
let bootstrap_ci ?(resamples = 1000) ?(confidence = 0.95) ~rng ~statistic values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Summary.bootstrap_ci: empty";
  let point = statistic values in
  if n = 1 then { point; lo = point; hi = point }
  else begin
    let stats =
      Array.init resamples (fun _ ->
          statistic (Array.init n (fun _ -> values.(Sim.Rng.int rng n))))
    in
    Array.sort compare stats;
    let alpha = (1.0 -. confidence) /. 2.0 in
    let pick q =
      stats.(max 0 (min (resamples - 1) (int_of_float (q *. float_of_int resamples))))
    in
    { point; lo = pick alpha; hi = pick (1.0 -. alpha) }
  end

let mean_ci ?resamples ?confidence ~rng values =
  bootstrap_ci ?resamples ?confidence ~rng ~statistic:mean values

let of_histogram h =
  let values = Array.make (Histogram.count h) 0.0 in
  let i = ref 0 in
  Histogram.iter h (fun v ->
      values.(!i) <- v;
      incr i);
  values
