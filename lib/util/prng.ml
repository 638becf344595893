type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). *)
let int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform t =
  let v = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)
