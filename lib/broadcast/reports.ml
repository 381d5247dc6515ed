type t = {
  n : int;
  need : int;
  rows : int array;  (* rows.(s * n + p): p's id in s's report, -1 absent *)
  count : int array;  (* entries in s's row, -1 until s's report arrives *)
  pending : Bytes.t;  (* '\001' while s's report awaits verification *)
  mutable n_pending : int;
}

let create ~n ~need =
  {
    n;
    need;
    rows = Array.make (n * n) (-1);
    count = Array.make n (-1);
    pending = Bytes.make n '\000';
    n_pending = 0;
  }

let reset t =
  Array.fill t.rows 0 (Array.length t.rows) (-1);
  Array.fill t.count 0 t.n (-1);
  Bytes.fill t.pending 0 t.n '\000';
  t.n_pending <- 0

let accept t s =
  s >= 0 && s < t.n && t.count.(s) < 0
  && begin
       t.count.(s) <- 0;
       Bytes.set t.pending s '\001';
       t.n_pending <- t.n_pending + 1;
       true
     end

let free t s p = p >= 0 && p < t.n && t.rows.((s * t.n) + p) < 0

let set t s p id =
  t.rows.((s * t.n) + p) <- id;
  t.count.(s) <- t.count.(s) + 1

let id t s p = t.rows.((s * t.n) + p)
let count t s = t.count.(s)

let rec agrees t row m p =
  p = t.n
  || (let id = t.rows.(row + p) in
      id < 0 || id = m.(p))
     && agrees t row m (p + 1)

let verify t m f x =
  if t.n_pending > 0 then
    for s = 0 to t.n - 1 do
      if
        Bytes.get t.pending s <> '\000'
        && t.count.(s) >= t.need
        && agrees t (s * t.n) m 0
      then begin
        Bytes.set t.pending s '\000';
        t.n_pending <- t.n_pending - 1;
        f x s
      end
    done
