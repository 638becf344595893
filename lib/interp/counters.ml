type t = {
  mutable int_ops : int;
  mutable flops_sp_add : int;
  mutable flops_sp_mul : int;
  mutable flops_sp_div : int;
  mutable flops_sp_special : int;
  mutable flops_dp_add : int;
  mutable flops_dp_mul : int;
  mutable flops_dp_div : int;
  mutable flops_dp_special : int;
  mutable loads : int;
  mutable stores : int;
  mutable bytes_loaded : int;
  mutable bytes_stored : int;
  mutable branches : int;
  mutable calls : int;
  mutable steps : int;
}

let create () =
  {
    int_ops = 0;
    flops_sp_add = 0;
    flops_sp_mul = 0;
    flops_sp_div = 0;
    flops_sp_special = 0;
    flops_dp_add = 0;
    flops_dp_mul = 0;
    flops_dp_div = 0;
    flops_dp_special = 0;
    loads = 0;
    stores = 0;
    bytes_loaded = 0;
    bytes_stored = 0;
    branches = 0;
    calls = 0;
    steps = 0;
  }

let reset t =
  t.int_ops <- 0;
  t.flops_sp_add <- 0;
  t.flops_sp_mul <- 0;
  t.flops_sp_div <- 0;
  t.flops_sp_special <- 0;
  t.flops_dp_add <- 0;
  t.flops_dp_mul <- 0;
  t.flops_dp_div <- 0;
  t.flops_dp_special <- 0;
  t.loads <- 0;
  t.stores <- 0;
  t.bytes_loaded <- 0;
  t.bytes_stored <- 0;
  t.branches <- 0;
  t.calls <- 0;
  t.steps <- 0

let copy t = { t with int_ops = t.int_ops }

let diff now before =
  {
    int_ops = now.int_ops - before.int_ops;
    flops_sp_add = now.flops_sp_add - before.flops_sp_add;
    flops_sp_mul = now.flops_sp_mul - before.flops_sp_mul;
    flops_sp_div = now.flops_sp_div - before.flops_sp_div;
    flops_sp_special = now.flops_sp_special - before.flops_sp_special;
    flops_dp_add = now.flops_dp_add - before.flops_dp_add;
    flops_dp_mul = now.flops_dp_mul - before.flops_dp_mul;
    flops_dp_div = now.flops_dp_div - before.flops_dp_div;
    flops_dp_special = now.flops_dp_special - before.flops_dp_special;
    loads = now.loads - before.loads;
    stores = now.stores - before.stores;
    bytes_loaded = now.bytes_loaded - before.bytes_loaded;
    bytes_stored = now.bytes_stored - before.bytes_stored;
    branches = now.branches - before.branches;
    calls = now.calls - before.calls;
    steps = now.steps - before.steps;
  }

let add_into acc d =
  acc.int_ops <- acc.int_ops + d.int_ops;
  acc.flops_sp_add <- acc.flops_sp_add + d.flops_sp_add;
  acc.flops_sp_mul <- acc.flops_sp_mul + d.flops_sp_mul;
  acc.flops_sp_div <- acc.flops_sp_div + d.flops_sp_div;
  acc.flops_sp_special <- acc.flops_sp_special + d.flops_sp_special;
  acc.flops_dp_add <- acc.flops_dp_add + d.flops_dp_add;
  acc.flops_dp_mul <- acc.flops_dp_mul + d.flops_dp_mul;
  acc.flops_dp_div <- acc.flops_dp_div + d.flops_dp_div;
  acc.flops_dp_special <- acc.flops_dp_special + d.flops_dp_special;
  acc.loads <- acc.loads + d.loads;
  acc.stores <- acc.stores + d.stores;
  acc.bytes_loaded <- acc.bytes_loaded + d.bytes_loaded;
  acc.bytes_stored <- acc.bytes_stored + d.bytes_stored;
  acc.branches <- acc.branches + d.branches;
  acc.calls <- acc.calls + d.calls;
  acc.steps <- acc.steps + d.steps

let scale t k =
  {
    int_ops = k * t.int_ops;
    flops_sp_add = k * t.flops_sp_add;
    flops_sp_mul = k * t.flops_sp_mul;
    flops_sp_div = k * t.flops_sp_div;
    flops_sp_special = k * t.flops_sp_special;
    flops_dp_add = k * t.flops_dp_add;
    flops_dp_mul = k * t.flops_dp_mul;
    flops_dp_div = k * t.flops_dp_div;
    flops_dp_special = k * t.flops_dp_special;
    loads = k * t.loads;
    stores = k * t.stores;
    bytes_loaded = k * t.bytes_loaded;
    bytes_stored = k * t.bytes_stored;
    branches = k * t.branches;
    calls = k * t.calls;
    steps = k * t.steps;
  }

let flops_sp t = t.flops_sp_add + t.flops_sp_mul + t.flops_sp_div + t.flops_sp_special

let flops_dp t = t.flops_dp_add + t.flops_dp_mul + t.flops_dp_div + t.flops_dp_special

let flops t = flops_sp t + flops_dp t

let bytes t = t.bytes_loaded + t.bytes_stored

(* Nominal per-event cycle costs for a modern superscalar core; only the
   ratios matter for hotspot ranking. *)
let work t =
  float_of_int t.int_ops *. 0.5
  +. float_of_int (t.flops_sp_add + t.flops_dp_add) *. 0.5
  +. float_of_int (t.flops_sp_mul + t.flops_dp_mul) *. 0.5
  +. float_of_int (t.flops_sp_div + t.flops_dp_div) *. 8.0
  +. float_of_int (t.flops_sp_special + t.flops_dp_special) *. 15.0
  +. float_of_int (t.loads + t.stores) *. 1.0
  +. float_of_int t.branches *. 0.5
