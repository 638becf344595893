let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let b = Array.copy a in
  Array.sort compare b;
  if n = 1 then b.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (b.(lo) *. (1.0 -. frac)) +. (b.(hi) *. frac)
  end
