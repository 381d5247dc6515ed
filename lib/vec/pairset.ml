module IM = Map.Make (Int)

type t = Vec.t IM.t

let empty = IM.empty
let cardinal = IM.cardinal

let add ~party v m =
  IM.update party (function None -> Some v | Some old -> Some old) m

let mem_party = IM.mem
let find_party p m = IM.find_opt p m
let values m = IM.bindings m |> List.map snd

let values_arr m =
  let n = IM.cardinal m in
  if n = 0 then [||]
  else begin
    let _, v0 = IM.min_binding m in
    let out = Array.make n v0 in
    let i = ref 0 in
    IM.iter
      (fun _ v ->
        out.(!i) <- v;
        incr i)
      m;
    out
  end
let parties m = IM.bindings m |> List.map fst
let bindings = IM.bindings

let of_bindings bs =
  List.fold_left (fun acc (p, v) -> add ~party:p v acc) empty bs

let same_value u v = Vec.compare u v = 0

let subset m m' =
  IM.for_all
    (fun p v ->
      match IM.find_opt p m' with Some v' -> same_value v v' | None -> false)
    m

let inter m m' =
  IM.merge
    (fun _ a b ->
      match (a, b) with
      | Some v, Some v' when same_value v v' -> Some v
      | _ -> None)
    m m'

let union m m' = IM.union (fun _ v _ -> Some v) m m'
let diameter m = Vec.diameter (values m)
