module Channel = Csp_trace.Channel

type item =
  | Chan of Chan_expr.t
  | Family of string * Vset.t
  | Base of string

type t = item list

let empty = []

(* deep structural hash, consistent with structural equality *)
let hash_item = function
  | Chan c -> ((1 * 31) + Chan_expr.hash c) land max_int
  | Family (n, m) ->
    ((((2 * 31) + Hashtbl.hash n) * 31) + Vset.hash m) land max_int
  | Base n -> ((3 * 31) + Hashtbl.hash n) land max_int

let hash cs =
  List.fold_left (fun h i -> ((h * 31) + hash_item i) land max_int) 17 cs

let item_equal a b =
  match a, b with
  | Chan c1, Chan c2 -> Chan_expr.equal c1 c2
  | Family (n1, m1), Family (n2, m2) -> String.equal n1 n2 && Vset.equal m1 m2
  | Base n1, Base n2 -> String.equal n1 n2
  | (Chan _ | Family _ | Base _), _ -> false

let equal a b =
  a == b || (List.length a = List.length b && List.for_all2 item_equal a b)

let of_channels cs = List.map (fun c -> Chan (Chan_expr.of_channel c)) cs
let of_names ns = List.map (fun n -> Chan (Chan_expr.simple n)) ns
let bases ns = List.map (fun n -> Base n) ns
let family name m = Family (name, m)

let item_mem rho item (c : Channel.t) =
  match item with
  | Base n -> String.equal n c.name
  | Family (n, m) -> (
    String.equal n c.name
    && match c.indices with [ v ] -> Vset.mem m v | _ -> false)
  | Chan ce -> (
    String.equal ce.name c.name
    &&
    match Chan_expr.eval rho ce with
    | c' -> Channel.equal c' c
    | exception Expr.Eval_error _ ->
      (* Unevaluable subscripts: match conservatively on the base name so
         alphabets cover at least what the text mentions. *)
      true)

let mem ?(rho = Valuation.empty) cs c = List.exists (fun i -> item_mem rho i c) cs
let union a b = a @ b

let base_names cs =
  let name = function Chan ce -> ce.Chan_expr.name | Family (n, _) | Base n -> n in
  List.fold_left
    (fun acc i ->
      let n = name i in
      if List.mem n acc then acc else acc @ [ n ])
    [] cs

let subst_value x v cs =
  List.map
    (function
      | Chan ce -> Chan (Chan_expr.subst_value x v ce)
      | (Family _ | Base _) as i -> i)
    cs

let free_vars cs =
  List.concat_map
    (function Chan ce -> Chan_expr.free_vars ce | Family _ | Base _ -> [])
    cs

let pp_item ppf = function
  | Chan ce -> Chan_expr.pp ppf ce
  | Family (n, m) -> Format.fprintf ppf "%s[%a]" n Vset.pp m
  | Base n -> Format.fprintf ppf "%s[*]" n

let pp ppf cs =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_item)
    cs
