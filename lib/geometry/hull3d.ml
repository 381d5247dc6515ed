(* Exact convex geometry in R^3.

   A polytope is carried as boundary face rings aligned with their outward
   supporting halfspaces. Hulls of small point sets are built by
   supporting-plane enumeration over point triples (the sets here are
   trimmed subsets of at most a dozen protocol values, so the cubic triple
   scan is far below a single LP solve); intersections are computed by
   successively clipping a padded bounding box with every supporting
   halfspace. Clipping one halfspace is Sutherland–Hodgman on each face
   ring plus reconstruction of the cap face, O(total boundary size).

   Everything is a deterministic pure function of the input coordinate
   bits: triple enumeration order is fixed, supporting planes are sorted,
   ties in the cap-face angular order break on the lexicographic vector
   order. Degenerate inputs (affinely dependent point sets, slivers thinner
   than the tolerance band) are *reported*, never guessed at — the caller
   falls back to the LP-backed implicit kernel, so numerical robustness
   here costs accuracy of the fast path, not correctness.

   The kernel runs on flat arrays in a per-domain workspace, so one
   [inter_hulls] call allocates little beyond its result:

   - The hulls of a safe-area call are the C(m, t) trimmed subsets of one
     multiset, so they share points and hence point triples. A triple's
     unit normal, its offset and the projection of every distinct point
     on it are computed once per call (56 triples for m = 8 where the
     subsets enumerate 280) and each hull reads its extremes from them.
     Points are shared by physical identity, as [Restrict.subsets_arr]
     shares them. With g distinct points the cache holds one slot of
     g + 4 floats per distinct ordered triple — C(g, 3) slots when every
     hull lists its points in one common order — plus a g³ index.
   - Vertices live in a float pool (three floats each), faces are index
     rings into it, and each cut builds the next polytope in a second
     buffer (ping-pong).

   Every floating-point expression is spelled out in the operation order
   of the [Vec] function it stands for (a dot product is
   [((0 + x0 y0) + x1 y1) + x2 y2]), and the sorts keep [List.sort]'s and
   [List.sort_uniq]'s choices where [Vec.compare] ties (0. against -0.),
   so the output bits equal those of the same algorithm composed from
   [Vec] and [List] calls; test/test_hull3d.ml pins them. The workspace
   is domain-local ([Domain.DLS]): serve and [Pool] run kernels on several
   domains at once, and no call yields mid-kernel. *)

type halfspace = { n : Vec.t; o : float }  (* unit [n]; region [n·x ≤ o] *)

type poly = {
  xyz : float array;  (* vertex coordinates, three per vertex *)
  ring : int array;  (* the face rings, concatenated, as vertex indices *)
  faces : halfspace array;  (* each face's outward supporting halfspace *)
  scale : float;  (* clip-box diagonal: the reference for tolerances *)
  mutable verts : Vec.t list option;  (* lazy deduped, sorted vertex list *)
}

(* Tolerances: [tol p] bounds distances considered zero, relative to the
   clip-box diagonal so the kernel is scale-invariant. *)
let tol p = 1e-9 *. p.scale

(* --- the workspace --- *)

(* One polytope under construction: vertex pool, face rings, and each
   face's plane as an index into [ws.pl]. *)
type shape = {
  mutable xyz : float array;
  mutable nv : int;
  mutable ring : int array;
  mutable first : int array;  (* [nf + 1] ring offsets *)
  mutable plane : int array;
  mutable nf : int;
}

type ws = {
  (* Distinct input points (physically distinct [Vec.t]s), three floats
     each, and every hull's points as indices into them, hull after hull. *)
  mutable gx : float array;
  mutable gsrc : Vec.t array;
  mutable hidx : int array;
  (* Triple cache: a sparse set keyed [(i·g + j)·g + k] over ordered point
     triples. Slot [s] holds at [s·(g + 4)] the unit normal, the offset
     [n·p_i] and the projection of each of the [g] points; [tspan.(s)] is
     0 when the triple spans no plane. *)
  mutable tsparse : int array;
  mutable tkey : int array;
  mutable tspan : int array;
  mutable tdat : float array;
  mutable nslots : int;
  (* Planes: four floats [nx ny nz o] each; the box's six come first. *)
  mutable pl : float array;
  mutable np : int;
  mutable order : int array;  (* the clip sequence, as plane indices *)
  mutable nord : int;
  mutable cur : shape;
  mutable nxt : shape;
  (* Per-cut scratch. *)
  mutable dv : float array;  (* signed distance of each current vertex *)
  mutable remap : int array;  (* current vertex -> next vertex, or -1 *)
  mutable onp : int array;  (* next vertex lies on the clip plane *)
  mutable ox : float array;  (* one face's clipped ring, with ... *)
  mutable osrc : int array;  (* ... its current-vertex source, or -1 *)
  mutable okeep : int array;
  mutable cap : int array;
  mutable srt : int array;
  mutable key : float array;
}

let shape () =
  {
    xyz = [||];
    nv = 0;
    ring = [||];
    first = [| 0 |];
    plane = [||];
    nf = 0;
  }

let ws_key =
  Domain.DLS.new_key (fun () ->
      {
        gx = [||];
        gsrc = [||];
        hidx = [||];
        tsparse = [||];
        tkey = [||];
        tspan = [||];
        tdat = [||];
        nslots = 0;
        pl = [||];
        np = 0;
        order = [||];
        nord = 0;
        cur = shape ();
        nxt = shape ();
        dv = [||];
        remap = [||];
        onp = [||];
        ox = [||];
        osrc = [||];
        okeep = [||];
        cap = [||];
        srt = [||];
        key = [||];
      })

(* Capacity growth: the workspace keeps the largest size seen. *)
let grow a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

exception Degenerate_input

(* Stable insertion sort of [a.(0 .. n − 1)]; the inputs are a few dozen
   entries. Stability is what reproduces [List.sort] on ties. *)
let sort_stable a n cmp =
  for q = 1 to n - 1 do
    let x = a.(q) in
    let j = ref (q - 1) in
    while !j >= 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* --- supporting planes --- *)

let[@inline] push_plane w nx ny nz o =
  w.pl <- grow w.pl ((w.np + 1) * 4) 0.;
  let b = w.np * 4 in
  w.pl.(b) <- nx;
  w.pl.(b + 1) <- ny;
  w.pl.(b + 2) <- nz;
  w.pl.(b + 3) <- o;
  w.np <- w.np + 1

(* The cache slot of the ordered triple (i, j, k) of distinct points,
   filled on first use: [normalize (cross (b − a) (c − a))], its offset
   [n·a] and every point's projection. *)
let triple w ~g i j k =
  let key = (((i * g) + j) * g) + k in
  let s = w.tsparse.(key) in
  if s < w.nslots && w.tkey.(s) = key then s
  else begin
    let s = w.nslots and stride = g + 4 in
    w.nslots <- s + 1;
    w.tkey <- grow w.tkey (s + 1) 0;
    w.tspan <- grow w.tspan (s + 1) 0;
    w.tdat <- grow w.tdat ((s + 1) * stride) 0.;
    w.tkey.(s) <- key;
    w.tsparse.(key) <- s;
    let gx = w.gx and d = w.tdat and base = s * stride in
    let a0 = gx.(3 * i) and a1 = gx.((3 * i) + 1) and a2 = gx.((3 * i) + 2) in
    let u0 = gx.(3 * j) -. a0
    and u1 = gx.((3 * j) + 1) -. a1
    and u2 = gx.((3 * j) + 2) -. a2 in
    let v0 = gx.(3 * k) -. a0
    and v1 = gx.((3 * k) + 1) -. a1
    and v2 = gx.((3 * k) + 2) -. a2 in
    let c0 = (u1 *. v2) -. (u2 *. v1)
    and c1 = (u2 *. v0) -. (u0 *. v2)
    and c2 = (u0 *. v1) -. (u1 *. v0) in
    let norm = sqrt ((0. +. (c0 *. c0)) +. (c1 *. c1) +. (c2 *. c2)) in
    if norm <= 1e-300 then w.tspan.(s) <- 0
    else begin
      w.tspan.(s) <- 1;
      let r = 1. /. norm in
      let n0 = r *. c0 and n1 = r *. c1 and n2 = r *. c2 in
      d.(base) <- n0;
      d.(base + 1) <- n1;
      d.(base + 2) <- n2;
      d.(base + 3) <- (0. +. (n0 *. a0)) +. (n1 *. a1) +. (n2 *. a2);
      for p = 0 to g - 1 do
        d.(base + 4 + p) <-
          (0. +. (n0 *. gx.(3 * p)))
          +. (n1 *. gx.((3 * p) + 1))
          +. (n2 *. gx.((3 * p) + 2))
      done
    end;
    s
  end

(* Lexicographic order on planes [(n, o)], as [Vec.compare] then
   [Float.compare]: it ties on 0. against -0. *)
let compare_plane pl a b =
  let a = 4 * a and b = 4 * b in
  let c = Float.compare pl.(a) pl.(b) in
  if c <> 0 then c
  else
    let c = Float.compare pl.(a + 1) pl.(b + 1) in
    if c <> 0 then c
    else
      let c = Float.compare pl.(a + 2) pl.(b + 2) in
      if c <> 0 then c else Float.compare pl.(a + 3) pl.(b + 3)

(* Whether position [p] of an [n]-element list heads a three-element leaf
   of [List.sort_uniq]'s merge tree (n ≥ 4 splits at n/2). *)
let rec heads_triple_leaf p lo n =
  if n <= 3 then n = 3 && p = lo
  else
    let n1 = n / 2 in
    if p < lo + n1 then heads_triple_leaf p lo n1
    else heads_triple_leaf p (lo + n1) (n - n1)

(* Replace the planes [s0, np) — one hull's, in generation order — by
   [List.sort_uniq compare_plane] of the list that prepending built, i.e.
   of the reversed sequence, appended to the clip order. Classes of tied
   planes keep the member [sort_uniq] keeps: the first in list order,
   except that a three-element leaf whose first two elements tie keeps
   its second. *)
let sort_uniq_planes w s0 =
  let len = w.np - s0 in
  w.srt <- grow w.srt len 0;
  w.order <- grow w.order (w.nord + len) 0;
  let srt = w.srt and pl = w.pl in
  (* [srt] holds list positions q, which is plane [np − 1 − q]. *)
  let plane q = w.np - 1 - q in
  for q = 0 to len - 1 do
    srt.(q) <- q
  done;
  sort_stable srt len (fun a b -> compare_plane pl (plane a) (plane b));
  let i = ref 0 in
  while !i < len do
    let q0 = srt.(!i) in
    let j = ref (!i + 1) in
    while !j < len && compare_plane pl (plane srt.(!j)) (plane q0) = 0 do
      incr j
    done;
    let q =
      if !j - !i >= 2 && srt.(!i + 1) = q0 + 1 && heads_triple_leaf q0 0 len
      then q0 + 1
      else q0
    in
    w.order.(w.nord) <- plane q;
    w.nord <- w.nord + 1;
    i := !j
  done

(* The supporting halfspaces of each hull by triple enumeration: a
   triple's plane supports the hull iff every point lies (within [tol]) on
   one side; the offset takes the extreme projection so all generators
   are inside. Appends each hull's sorted, deduplicated planes to the
   clip order. @raise Degenerate_input when a hull is affinely dependent
   (no triple spans a plane, or a spanning plane has every point in its
   tolerance band). *)
let enumerate_planes w hulls ~tol =
  let total = Array.fold_left (fun acc h -> acc + Array.length h) 0 hulls in
  w.gx <- grow w.gx (3 * total) 0.;
  w.gsrc <- grow w.gsrc total (Vec.zero 0);
  w.hidx <- grow w.hidx total 0;
  let g = ref 0 and at = ref 0 in
  Array.iter
    (fun h ->
      Array.iter
        (fun (p : Vec.t) ->
          let i = ref 0 in
          while !i < !g && w.gsrc.(!i) != p do
            incr i
          done;
          if !i = !g then begin
            let c = (p :> float array) in
            w.gsrc.(!g) <- p;
            w.gx.(3 * !g) <- c.(0);
            w.gx.((3 * !g) + 1) <- c.(1);
            w.gx.((3 * !g) + 2) <- c.(2);
            incr g
          end;
          w.hidx.(!at) <- !i;
          incr at)
        h)
    hulls;
  let g = !g in
  Array.fill w.gsrc 0 g (Vec.zero 0);
  w.tsparse <- grow w.tsparse (g * g * g) 0;
  w.nslots <- 0;
  let hstart = ref 0 in
  Array.iter
    (fun h ->
      let m = Array.length h and h0 = !hstart in
      let hidx = w.hidx in
      let s0 = w.np in
      let spanning = ref false in
      for i = 0 to m - 3 do
        for j = i + 1 to m - 2 do
          for k = j + 1 to m - 1 do
            let s = triple w ~g hidx.(h0 + i) hidx.(h0 + j) hidx.(h0 + k) in
            if w.tspan.(s) = 1 then begin
              spanning := true;
              let d = w.tdat and base = s * (g + 4) in
              let o = d.(base + 3) in
              let hi = ref neg_infinity and lo = ref infinity in
              for q = h0 to h0 + m - 1 do
                let x = d.(base + 4 + hidx.(q)) in
                if x > !hi then hi := x;
                if x < !lo then lo := x
              done;
              let hi = !hi and lo = !lo in
              if hi <= o +. tol && lo >= o -. tol then raise_notrace Degenerate_input;
              let n0 = d.(base) and n1 = d.(base + 1) and n2 = d.(base + 2) in
              if hi <= o +. tol then push_plane w n0 n1 n2 hi;
              if lo >= o -. tol then
                push_plane w (-1. *. n0) (-1. *. n1) (-1. *. n2) (-.lo)
            end
          done
        done
      done;
      if not !spanning then raise_notrace Degenerate_input;
      sort_uniq_planes w s0;
      hstart := h0 + m)
    hulls

(* --- clipping --- *)

(* The initial clip box: an axis-aligned box strictly containing the target
   region, face rings ordered as simple cycles. Vertex [4x + 2y + z] is the
   corner on the high side of each axis whose bit is set. *)
let box_rings =
  [| 0; 1; 3; 2; 4; 6; 7; 5; 0; 4; 5; 1; 2; 3; 7; 6; 0; 2; 6; 4; 1; 5; 7; 3 |]

let init_box w ~lo ~hi =
  w.np <- 0;
  push_plane w (-1.) 0. 0. (-.lo.(0));
  push_plane w 1. 0. 0. hi.(0);
  push_plane w 0. (-1.) 0. (-.lo.(1));
  push_plane w 0. 1. 0. hi.(1);
  push_plane w 0. 0. (-1.) (-.lo.(2));
  push_plane w 0. 0. 1. hi.(2);
  let s = w.cur in
  s.xyz <- grow s.xyz 24 0.;
  s.ring <- grow s.ring 24 0;
  s.first <- grow s.first 7 0;
  s.plane <- grow s.plane 6 0;
  for v = 0 to 7 do
    s.xyz.(3 * v) <- (if v land 4 = 0 then lo.(0) else hi.(0));
    s.xyz.((3 * v) + 1) <- (if v land 2 = 0 then lo.(1) else hi.(1));
    s.xyz.((3 * v) + 2) <- (if v land 1 = 0 then lo.(2) else hi.(2))
  done;
  Array.blit box_rings 0 s.ring 0 24;
  for f = 0 to 5 do
    s.first.(f) <- 4 * f;
    s.plane.(f) <- f
  done;
  s.first.(6) <- 24;
  s.nv <- 8;
  s.nf <- 6

let[@inline] dist xyz a b =
  let d0 = xyz.(3 * a) -. xyz.(3 * b)
  and d1 = xyz.((3 * a) + 1) -. xyz.((3 * b) + 1)
  and d2 = xyz.((3 * a) + 2) -. xyz.((3 * b) + 2) in
  sqrt ((0. +. (d0 *. d0)) +. (d1 *. d1) +. (d2 *. d2))

let compare_vertex xyz a b =
  let a = 3 * a and b = 3 * b in
  let c = Float.compare xyz.(a) xyz.(b) in
  if c <> 0 then c
  else
    let c = Float.compare xyz.(a + 1) xyz.(b + 1) in
    if c <> 0 then c else Float.compare xyz.(a + 2) xyz.(b + 2)

(* Tolerance dedupe of the point cloud [idx.(0 .. n − 1)]: stable
   lexicographic sort, then drop every point within [tol] of the last one
   kept. Returns the kept count, compacted to the front of [idx]. *)
let sort_dedupe xyz idx n ~tol =
  sort_stable idx n (compare_vertex xyz);
  if n = 0 then 0
  else begin
    let kept = ref 1 in
    for q = 1 to n - 1 do
      if not (dist xyz idx.(!kept - 1) idx.(q) <= tol) then begin
        idx.(!kept) <- idx.(q);
        incr kept
      end
    done;
    !kept
  end

(* Order the coplanar points [idx.(0 .. n − 1)] of [s] into a convex ring:
   a stable sort by angle around their centroid in a deterministic
   orthonormal basis (u, v) of the plane normal to [(n0, n1, n2)], ties
   broken lexicographically. The basis projects out the least-aligned
   coordinate axis. *)
let order_ring w (s : shape) idx n n0 n1 n2 =
  let xyz = s.xyz in
  let wt = 1. /. float_of_int n in
  let p = 3 * idx.(0) in
  let c0 = ref (wt *. xyz.(p))
  and c1 = ref (wt *. xyz.(p + 1))
  and c2 = ref (wt *. xyz.(p + 2)) in
  for q = 1 to n - 1 do
    let p = 3 * idx.(q) in
    c0 := !c0 +. (wt *. xyz.(p));
    c1 := !c1 +. (wt *. xyz.(p + 1));
    c2 := !c2 +. (wt *. xyz.(p + 2))
  done;
  let k =
    let a0 = Float.abs n0 and a1 = Float.abs n1 and a2 = Float.abs n2 in
    let k = if a1 < a0 then 1 else 0 in
    if a2 < (if k = 1 then a1 else a0) then 2 else k
  in
  let e0 = if k = 0 then 1. else 0.
  and e1 = if k = 1 then 1. else 0.
  and e2 = if k = 2 then 1. else 0. in
  let ne = (0. +. (n0 *. e0)) +. (n1 *. e1) +. (n2 *. e2) in
  let w0 = e0 -. (ne *. n0) and w1 = e1 -. (ne *. n1) and w2 = e2 -. (ne *. n2) in
  let norm = sqrt ((0. +. (w0 *. w0)) +. (w1 *. w1) +. (w2 *. w2)) in
  assert (not (norm <= 1e-300)) (* |n·e_k| ≤ 1/√3 < 1 *);
  let r = 1. /. norm in
  let u0 = r *. w0 and u1 = r *. w1 and u2 = r *. w2 in
  let v0 = (n1 *. u2) -. (n2 *. u1)
  and v1 = (n2 *. u0) -. (n0 *. u2)
  and v2 = (n0 *. u1) -. (n1 *. u0) in
  let c0 = !c0 and c1 = !c1 and c2 = !c2 in
  (* [key.(v)] is vertex [v]'s angle. *)
  let key = w.key in
  for q = 0 to n - 1 do
    let v = idx.(q) in
    let d0 = xyz.(3 * v) -. c0
    and d1 = xyz.((3 * v) + 1) -. c1
    and d2 = xyz.((3 * v) + 2) -. c2 in
    key.(v) <-
      Float.atan2
        ((0. +. (d0 *. v0)) +. (d1 *. v1) +. (d2 *. v2))
        ((0. +. (d0 *. u0)) +. (d1 *. u1) +. (d2 *. u2))
  done;
  sort_stable idx n (fun a b ->
      let c = Float.compare key.(a) key.(b) in
      if c <> 0 then c else compare_vertex xyz a b)

(* Clip [w.cur] with plane [pid]. [`Unchanged] when every vertex is
   already inside (the plane is redundant), [`Empty] when no vertex is
   strictly inside, [`Degenerate] when the result is thinner than the
   tolerance band (fewer than four surviving faces); on [`Cut] the clipped
   polytope becomes [w.cur]. *)
let clip w pid ~eps =
  let s = w.cur and pl = w.pl in
  let n0 = pl.(4 * pid)
  and n1 = pl.((4 * pid) + 1)
  and n2 = pl.((4 * pid) + 2)
  and o = pl.((4 * pid) + 3) in
  w.dv <- grow w.dv s.nv 0.;
  let dv = w.dv and xyz = s.xyz in
  let any_out = ref false and any_in = ref false in
  for v = 0 to s.nv - 1 do
    let d =
      (0. +. (n0 *. xyz.(3 * v)))
      +. (n1 *. xyz.((3 * v) + 1))
      +. (n2 *. xyz.((3 * v) + 2))
      -. o
    in
    dv.(v) <- d;
    if d > eps then any_out := true else if d < -.eps then any_in := true
  done;
  if not !any_out then `Unchanged
  else if not !any_in then `Empty
  else begin
    (* Each ring at most doubles, and the cap draws on the new rings. *)
    let r = s.first.(s.nf) in
    let t = w.nxt in
    t.xyz <- grow t.xyz (6 * r) 0.;
    t.ring <- grow t.ring (4 * r) 0;
    t.first <- grow t.first (s.nf + 2) 0;
    t.plane <- grow t.plane (s.nf + 1) 0;
    w.remap <- grow w.remap s.nv 0;
    w.onp <- grow w.onp (2 * r) 0;
    w.ox <- grow w.ox (6 * r) 0.;
    w.osrc <- grow w.osrc (2 * r) 0;
    w.okeep <- grow w.okeep (2 * r) 0;
    w.cap <- grow w.cap (2 * r) 0;
    w.srt <- grow w.srt (2 * r) 0;
    w.key <- grow w.key (2 * r) 0.;
    let remap = w.remap and ox = w.ox and osrc = w.osrc and okeep = w.okeep in
    let txyz = t.xyz and onp = w.onp and cap = w.cap in
    Array.fill remap 0 s.nv (-1);
    t.nv <- 0;
    t.nf <- 0;
    t.first.(0) <- 0;
    let ncap = ref 0 in
    let on_plane = 4. *. eps in
    for f = 0 to s.nf - 1 do
      let r0 = s.first.(f) in
      let k = s.first.(f + 1) - r0 in
      (* Sutherland–Hodgman on the ring. *)
      let nout = ref 0 in
      for i = 0 to k - 1 do
        let cur = s.ring.(r0 + i) and next = s.ring.(r0 + ((i + 1) mod k)) in
        let dc = dv.(cur) and dn = dv.(next) in
        let ic = dc <= eps and inext = dn <= eps in
        if ic then begin
          osrc.(!nout) <- cur;
          Array.blit xyz (3 * cur) ox (3 * !nout) 3;
          incr nout
        end;
        if ic <> inext then begin
          let denom = dc -. dn in
          if Float.abs denom > 0. then begin
            let lam = dc /. denom in
            let c = 3 * cur and x = 3 * next and q = 3 * !nout in
            for a = 0 to 2 do
              ox.(q + a) <-
                xyz.(c + a) +. (lam *. (xyz.(x + a) -. xyz.(c + a)))
            done;
            osrc.(!nout) <- -1;
            incr nout
          end
        end
      done;
      (* Collapse chains of near-identical consecutive points, keeping
         each chain's last, then the last point if it is near the first. *)
      let nout = !nout in
      let nk = ref 0 in
      for q = 0 to nout - 2 do
        if not (dist ox q (q + 1) <= eps) then begin
          okeep.(!nk) <- q;
          incr nk
        end
      done;
      if nout >= 1 then begin
        okeep.(!nk) <- nout - 1;
        incr nk
      end;
      if !nk <= 1 then nk := 0
      else if dist ox okeep.(!nk - 1) okeep.(0) <= eps then decr nk;
      if !nk >= 3 then begin
        let len = t.first.(t.nf) in
        for r = 0 to !nk - 1 do
          let q = okeep.(r) in
          let src = osrc.(q) in
          let v =
            if src >= 0 && remap.(src) >= 0 then remap.(src)
            else begin
              let v = t.nv in
              t.nv <- v + 1;
              Array.blit ox (3 * q) txyz (3 * v) 3;
              let d =
                if src >= 0 then begin
                  remap.(src) <- v;
                  dv.(src)
                end
                else
                  (0. +. (n0 *. txyz.(3 * v)))
                  +. (n1 *. txyz.((3 * v) + 1))
                  +. (n2 *. txyz.((3 * v) + 2))
                  -. o
              in
              onp.(v) <- (if Float.abs d <= on_plane then 1 else 0);
              v
            end
          in
          t.ring.(len + r) <- v;
          if onp.(v) = 1 then begin
            cap.(!ncap) <- v;
            incr ncap
          end
        done;
        t.plane.(t.nf) <- s.plane.(f);
        t.nf <- t.nf + 1;
        t.first.(t.nf) <- len + !nk
      end
    done;
    (* The cap face: every surviving boundary point on the clip plane, in
       reverse encounter order (the order the point list was consed in).
       Its vertices all also lie on two adjacent side faces, so the ring
       is recoverable by angular ordering. *)
    let srt = w.srt and ncap = !ncap in
    for q = 0 to ncap - 1 do
      srt.(q) <- cap.(ncap - 1 - q)
    done;
    let npts = sort_dedupe txyz srt ncap ~tol:eps in
    if npts >= 3 then begin
      order_ring w t srt npts n0 n1 n2;
      let len = t.first.(t.nf) in
      Array.blit srt 0 t.ring len npts;
      t.plane.(t.nf) <- pid;
      t.nf <- t.nf + 1;
      t.first.(t.nf) <- len + npts
    end;
    if t.nf >= 4 then begin
      w.nxt <- s;
      w.cur <- t;
      `Cut
    end
    else `Degenerate
  end

let freeze w ~scale =
  let s = w.cur and pl = w.pl in
  let nr = s.first.(s.nf) in
  {
    xyz = Array.sub s.xyz 0 (3 * s.nv);
    ring = Array.sub s.ring 0 nr;
    faces =
      Array.init s.nf (fun f ->
          let b = 4 * s.plane.(f) in
          {
            n = Vec.of_array [| pl.(b); pl.(b + 1); pl.(b + 2) |];
            o = pl.(b + 3);
          });
    scale;
    verts = None;
  }

let inter_hulls hulls =
  if Array.length hulls = 0 then invalid_arg "Hull3d.inter_hulls: no hulls"
  else begin
    let w = Domain.DLS.get ws_key in
    let lo = Array.make 3 infinity and hi = Array.make 3 neg_infinity in
    Array.iter
      (fun (p : Vec.t) ->
        let c = (p :> float array) in
        for i = 0 to 2 do
          if c.(i) < lo.(i) then lo.(i) <- c.(i);
          if c.(i) > hi.(i) then hi.(i) <- c.(i)
        done)
      hulls.(0);
    let diag =
      sqrt
        (((hi.(0) -. lo.(0)) ** 2.)
        +. ((hi.(1) -. lo.(1)) ** 2.)
        +. ((hi.(2) -. lo.(2)) ** 2.))
    in
    if not (Float.is_finite diag) || diag <= 0. then `Degenerate
    else begin
      let eps = 1e-9 *. diag in
      let pad = 0.125 *. diag in
      for i = 0 to 2 do
        lo.(i) <- lo.(i) -. pad;
        hi.(i) <- hi.(i) +. pad
      done;
      init_box w ~lo ~hi;
      w.nord <- 0;
      match enumerate_planes w hulls ~tol:eps with
      | exception Degenerate_input -> `Degenerate
      | () ->
          let rec go i =
            if i = w.nord then `Poly (freeze w ~scale:diag)
            else
              match clip w w.order.(i) ~eps with
              | `Unchanged | `Cut -> go (i + 1)
              | (`Empty | `Degenerate) as r -> r
          in
          go 0
    end
  end

let of_points pts =
  match pts with
  | _ :: _ :: _ :: _ :: _ -> (
      match inter_hulls [| Array.of_list pts |] with
      | `Poly _ as r -> r
      | `Empty | `Degenerate -> `Degenerate)
  | _ -> `Degenerate

let vertices p =
  match p.verts with
  | Some vs -> vs
  | None ->
      let idx = Array.copy p.ring in
      let n = sort_dedupe p.xyz idx (Array.length idx) ~tol:(tol p) in
      let vs =
        List.init n (fun q -> Vec.of_array (Array.sub p.xyz (3 * idx.(q)) 3))
      in
      p.verts <- Some vs;
      vs

let nfaces p = Array.length p.faces

let halfspaces p = Array.to_list p.faces

let contains ?(eps = 1e-9) p v =
  Array.for_all (fun { n; o } -> Vec.dot n v <= o +. eps) p.faces

(* [Vec.diameter_pair] over the vertex set, scanned without allocating:
   every ordered pair, oriented lexicographically, replaces the best one
   when more than 1e-15 longer, or as long within 1e-15 and
   lexicographically smaller. *)
let diameter_pair p =
  let vs = Array.of_list (vertices p) in
  let cmp (u : Vec.t) (v : Vec.t) =
    let u = (u :> float array) and v = (v :> float array) in
    let c = Float.compare u.(0) v.(0) in
    if c <> 0 then c
    else
      let c = Float.compare u.(1) v.(1) in
      if c <> 0 then c else Float.compare u.(2) v.(2)
  in
  let ba = ref 0 and bb = ref 0 and bd = ref 0. in
  for i = 0 to Array.length vs - 1 do
    for j = 0 to Array.length vs - 1 do
      let swap = cmp vs.(i) vs.(j) > 0 in
      let a = if swap then j else i and b = if swap then i else j in
      let u = (vs.(a) :> float array) and v = (vs.(b) :> float array) in
      let d0 = u.(0) -. v.(0) and d1 = u.(1) -. v.(1) and d2 = u.(2) -. v.(2) in
      let d = (0. +. (d0 *. d0)) +. (d1 *. d1) +. (d2 *. d2) in
      if
        (i = 0 && j = 0)
        || d > !bd +. 1e-15
        || Float.abs (d -. !bd) <= 1e-15
           &&
           let c = cmp vs.(a) vs.(!ba) in
           c < 0 || (c = 0 && cmp vs.(b) vs.(!bb) < 0)
      then begin
        ba := a;
        bb := b;
        bd := d
      end
    done
  done;
  (vs.(!ba), vs.(!bb))

let diameter p =
  let a, b = diameter_pair p in
  Vec.dist a b

let centroid p = Vec.centroid (vertices p)
