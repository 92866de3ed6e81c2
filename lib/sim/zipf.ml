(* Rejection-inversion sampling of the Zipf distribution (Hörmann &
   Derflinger, "Rejection-inversion to generate variates from monotone
   discrete distributions", ACM TOMACS 1996) — the same scheme Apache
   Commons and gem5 use for YCSB-style key popularity.

   Internally ranks are 1-based (the classical Zipf support); [sample]
   shifts to 0-based so rank 0 is the hottest key. The density is
   h(x) = x^-theta; its integral H dominates the histogram of the
   discrete distribution, so inverting a uniform draw under H and
   accepting with the exact mass gives O(1) expected draws per sample
   (the acceptance rate is high even for theta near 1). *)

type t = {
  n : int;
  theta : float;
  one_minus_theta : float; (* 0.0 signals the log/exp branch (theta = 1) *)
  h_x1 : float; (* H(1.5) - 1, upper edge of the inversion interval *)
  h_n : float; (* H(n + 0.5), lower edge *)
  cut : float; (* acceptance shortcut: |k - x| below this always accepts *)
}

let[@inline] h t x =
  (* point density h(x) = x^-theta *)
  exp (-.t.theta *. log x)

(* H(x) = \int_1^x u^-theta du, and its inverse. The theta = 1 pair is
   the log/exp limit; near-1 exponents are numerically fine in the
   closed form because x^(1-theta) is evaluated via [**], not as a
   difference of large terms. *)
let[@inline] h_integral t x =
  if t.one_minus_theta = 0.0 then log x else ((x ** t.one_minus_theta) -. 1.0) /. t.one_minus_theta

let[@inline] h_integral_inv t x =
  if t.one_minus_theta = 0.0 then exp x
  else (1.0 +. (x *. t.one_minus_theta)) ** (1.0 /. t.one_minus_theta)

let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if not (theta > 0.0) then invalid_arg "Zipf.create: theta must be > 0";
  let one_minus_theta = if theta = 1.0 then 0.0 else 1.0 -. theta in
  let t = { n; theta; one_minus_theta; h_x1 = 0.0; h_n = 0.0; cut = 0.0 } in
  let h_x1 = h_integral t 1.5 -. 1.0 in
  let h_n = h_integral t (float_of_int n +. 0.5) in
  let cut = 2.0 -. h_integral_inv t (h_integral t 2.5 -. h t 2.0) in
  { t with h_x1; h_n; cut }

let n t = t.n
let theta t = t.theta

(* A top-level loop, not a closure, and inlined float helpers: a sample
   allocates only the boxed float [Rng.float] returns. *)
let rec draw t rng =
  (* u uniform in [h_n, h_x1): the area under H between the support's
     outermost half-integer boundaries. *)
  let u = t.h_n +. (Rng.float rng 1.0 *. (t.h_x1 -. t.h_n)) in
  let x = h_integral_inv t u in
  let k = int_of_float (Float.round x) in
  let k = if k < 1 then 1 else if k > t.n then t.n else k in
  if float_of_int k -. x <= t.cut then k
  else if u >= h_integral t (float_of_int k +. 0.5) -. h t (float_of_int k) then k
  else draw t rng

let sample t rng = draw t rng - 1
