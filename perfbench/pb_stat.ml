(* Order statistics over timing samples, and seeded orders. *)

(* Shuffle [a] in place (Fisher-Yates) with [st]. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Linear interpolation between order statistics, the rule
   [Obs.Metrics.Histogram.percentile] uses too; [nan] without samples. *)
let percentile xs p = match xs with [] -> nan | _ -> Util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0

(* Geometric mean; [nan] without samples. *)
let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Samples strictly above the interpolation rank of whole percentile [p]
   among [n]. *)
let beyond n p = n - 1 - int_of_float (Float.floor (float_of_int p /. 100.0 *. float_of_int (n - 1)))

(* The tail rule: the highest whole percentile that still has at least
   ten samples beyond it, or [None] when no percentile does. *)
let tail_percentile n =
  let rec down p = if p < 0 then None else if beyond n p >= 10 then Some p else down (p - 1) in
  if n <= 10 then None else down 99
