type storage =
  | Sfloat of float array  (* float and double arrays; element type disambiguates *)
  | Sint of int array

type entry = { storage : storage; ety : Ast.ty; ename : string }

type t = { mutable entries : entry array; mutable count : int }

let create () = { entries = [||]; count = 0 }

let grow t =
  let cap = Array.length t.entries in
  if t.count >= cap then begin
    let ncap = max 8 (2 * cap) in
    let fresh =
      Array.make ncap { storage = Sint [||]; ety = Ast.Tint; ename = "<empty>" }
    in
    Array.blit t.entries 0 fresh 0 cap;
    t.entries <- fresh
  end

let alloc t ~name ~elem_ty n =
  if n < 0 then invalid_arg "Memory.alloc: negative length";
  let storage =
    match elem_ty with
    | Ast.Tfloat | Ast.Tdouble -> Sfloat (Array.make n 0.0)
    | Ast.Tint | Ast.Tbool -> Sint (Array.make n 0)
    | Ast.Tvoid | Ast.Tptr _ ->
      invalid_arg ("Memory.alloc: unsupported element type for " ^ name)
  in
  grow t;
  let base = t.count in
  t.entries.(base) <- { storage; ety = elem_ty; ename = name };
  t.count <- base + 1;
  { Value.base; offset = 0 }

let entry t base =
  if base < 0 || base >= t.count then failwith "Memory: dangling pointer";
  t.entries.(base)

let length t base =
  match (entry t base).storage with
  | Sfloat a -> Array.length a
  | Sint a -> Array.length a

let elem_ty t base = (entry t base).ety

let elem_bytes t base = Ast.sizeof (entry t base).ety

let name t base = (entry t base).ename

let check t (ptr : Value.ptr) i =
  let e = entry t ptr.base in
  let idx = ptr.offset + i in
  let len = match e.storage with Sfloat a -> Array.length a | Sint a -> Array.length a in
  if idx < 0 || idx >= len then
    failwith
      (Printf.sprintf "array %s: index %d out of bounds [0,%d)" e.ename idx len);
  (e, idx)

let load t ptr i =
  let e, idx = check t ptr i in
  match e.storage, e.ety with
  | Sfloat a, Ast.Tfloat -> Value.Vfloat (Value.Sp, a.(idx))
  | Sfloat a, _ -> Value.Vfloat (Value.Dp, a.(idx))
  | Sint a, Ast.Tbool -> Value.Vbool (a.(idx) <> 0)
  | Sint a, _ -> Value.Vint a.(idx)

let store t ptr i v =
  let e, idx = check t ptr i in
  match e.storage, e.ety with
  | Sfloat a, Ast.Tfloat -> a.(idx) <- Intrinsic.demote (Value.to_float v)
  | Sfloat a, _ -> a.(idx) <- Value.to_float v
  | Sint a, Ast.Tbool -> a.(idx) <- (if Value.truth v then 1 else 0)
  | Sint a, _ -> a.(idx) <- Value.to_int v

type raw = Rfloat of float array | Rint of int array

let raw t base =
  match (entry t base).storage with Sfloat a -> Rfloat a | Sint a -> Rint a

let array_count t = t.count

let to_float_array t base =
  match (entry t base).storage with
  | Sfloat a -> Array.copy a
  | Sint a -> Array.map float_of_int a
