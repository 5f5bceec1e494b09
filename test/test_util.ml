(* Shared helpers for the test suite. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.2g)" msg expected actual tol

let check_float_rel ?(tol = 1e-6) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %.2g)" msg expected actual tol

let check_vec ?(tol = 1e-9) msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: dimension mismatch %d vs %d" msg (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i e ->
      if Float.abs (e -. actual.(i)) > tol then
        Alcotest.failf "%s: component %d: expected %.12g, got %.12g" msg i e actual.(i))
    expected

let check_true msg cond = Alcotest.(check bool) msg true cond
let check_false msg cond = Alcotest.(check bool) msg false cond

let case name f = Alcotest.test_case name `Quick f

(* Registers a qcheck property as an alcotest case with a deterministic
   seed so failures are reproducible. *)
let prop name ?(count = 200) gen law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xffc |])
    (QCheck2.Test.make ~name ~count gen law)

(* MD5 over the exact bit patterns of [floats] followed by [ints]: the
   fingerprint behind the golden sample-path tests, where "close" is
   not good enough. *)
let bits_digest ?(ints = []) floats =
  let b = Buffer.create 4096 in
  List.iter (fun x -> Printf.bprintf b "%Lx," (Int64.bits_of_float x)) floats;
  List.iter (fun n -> Printf.bprintf b "%d;" n) ints;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One line of JSON through the repo's strict parser; anything that is
   not valid JSON fails the test. *)
let json line =
  match Ffc_obs.Jsonf.of_string line with
  | Ok v -> v
  | Error (at, why) -> Alcotest.failf "not JSON at byte %d (%s): %s" at why line

(* A top-level field of a JSON line, and its string or number value. *)
let json_field line key = Ffc_obs.Jsonf.member key (json line)
let json_str line key = Ffc_obs.Jsonf.get Ffc_obs.Jsonf.as_string key (json line)
let json_num line key = Ffc_obs.Jsonf.get Ffc_obs.Jsonf.as_float key (json line)
