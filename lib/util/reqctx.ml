(* The request context: one DLS slot, captured by Pool.Fut.spawn and
   installed around every execution of a future.  See reqctx.mli. *)

type t = { step_budget : int option }

let empty = { step_budget = None }

let key = Domain.DLS.new_key (fun () -> empty)

let current () = Domain.DLS.get key

let run_in c f =
  let own = Domain.DLS.get key in
  Domain.DLS.set key c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key own) f

let step_budget () = (current ()).step_budget

let with_step_budget n f = run_in { step_budget = Some (max 1 n) } f
