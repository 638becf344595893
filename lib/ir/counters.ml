type t = int array

let steps = 0
let int_ops = 1

(* 2..5 single-precision flops, 6..9 double-precision, by [flop] *)

let loads = 10
let stores = 11
let bytes_loaded = 12
let bytes_stored = 13
let branches = 14
let calls = 15
let length = 16

type flop_class = Add | Mul | Div | Special

let flop ~single cls =
  (if single then 2 else 6) + match cls with Add -> 0 | Mul -> 1 | Div -> 2 | Special -> 3

let create () = Array.make length 0

let copy = Array.copy

let diff now before = Array.map2 ( - ) now before

let add_into acc d =
  for i = 0 to length - 1 do
    acc.(i) <- acc.(i) + d.(i)
  done

let scale t k = Array.map (fun x -> k * x) t

let flops_of t cls = t.(flop ~single:true cls) + t.(flop ~single:false cls)

let flops_sp t =
  t.(flop ~single:true Add) + t.(flop ~single:true Mul) + t.(flop ~single:true Div)
  + t.(flop ~single:true Special)

let flops t = flops_of t Add + flops_of t Mul + flops_of t Div + flops_of t Special

let bytes t = t.(bytes_loaded) + t.(bytes_stored)

(* Nominal per-event cycle costs for a modern superscalar core; only the
   ratios matter for hotspot ranking. *)
let work t =
  float_of_int t.(int_ops) *. 0.5
  +. float_of_int (flops_of t Add) *. 0.5
  +. float_of_int (flops_of t Mul) *. 0.5
  +. float_of_int (flops_of t Div) *. 8.0
  +. float_of_int (flops_of t Special) *. 15.0
  +. float_of_int (t.(loads) + t.(stores)) *. 1.0
  +. float_of_int t.(branches) *. 0.5
