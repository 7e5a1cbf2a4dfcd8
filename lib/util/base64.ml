(* RFC 4648 standard base64.  See base64.mli. *)

let alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

(* Native-endian 16-bit access, unchecked: the same primitives
   [Bytes.get_uint16_ne] uses, minus the bounds check.  A value read
   and written back in the same byte order copies two bytes verbatim. *)
external get16u : string -> int -> int = "%caml_string_get16u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* The two characters of every 12-bit value, at offset [2 * v]: three
   input bytes become two lookups and two stores. *)
let pairs =
  String.init 8192 (fun k ->
      let v = k / 2 in
      alphabet.[if k land 1 = 0 then v lsr 6 else v land 63])

let encode s =
  let n = String.length s in
  let out = Bytes.create ((n + 2) / 3 * 4) in
  let byte i = Char.code (String.unsafe_get s i) in
  let full = n / 3 in
  for q = 0 to full - 1 do
    let i = 3 * q in
    let x = (byte i lsl 16) lor (byte (i + 1) lsl 8) lor byte (i + 2) in
    set16u out (4 * q) (get16u pairs (2 * (x lsr 12)));
    set16u out ((4 * q) + 2) (get16u pairs (2 * (x land 0xFFF)))
  done;
  (match n - (3 * full) with
  | 0 -> ()
  | rest ->
      let i = 3 * full and o = 4 * full in
      let x = (byte i lsl 16) lor if rest = 2 then byte (i + 1) lsl 8 else 0 in
      Bytes.set out o alphabet.[x lsr 18];
      Bytes.set out (o + 1) alphabet.[(x lsr 12) land 63];
      Bytes.set out (o + 2)
        (if rest = 2 then alphabet.[(x lsr 6) land 63] else '=');
      Bytes.set out (o + 3) '=');
  Bytes.unsafe_to_string out

(* Each byte's alphabet value, [pad] for '=' and [bad] for everything
   else: both markers lie above 63, so OR-ing a quad's four values
   exposes any non-data character with one comparison. *)
let pad = 64
let bad = 128

let rev_table =
  let t = Bytes.make 256 (Char.chr bad) in
  String.iteri (fun i c -> Bytes.set t (Char.code c) (Char.chr i)) alphabet;
  Bytes.set t (Char.code '=') (Char.chr pad);
  Bytes.unsafe_to_string t

exception Bad of string

let decode s =
  let n = String.length s in
  if n mod 4 <> 0 then
    Error (Printf.sprintf "base64: length %d is not a multiple of 4" n)
  else if n = 0 then Ok ""
  else
    let value i =
      Char.code (String.unsafe_get rev_table (Char.code (String.unsafe_get s i)))
    in
    let len =
      (n / 4 * 3)
      - if s.[n - 1] <> '=' then 0 else if s.[n - 2] <> '=' then 1 else 2
    in
    let out = Bytes.create len in
    (* The final quad, or the first one holding a non-data character:
       '=' may appear only as the final one or two characters. *)
    let quad i =
      let v i =
        match value i with
        | 128 ->
            raise
              (Bad
                 (Printf.sprintf "base64: invalid character %C at offset %d"
                    s.[i] i))
        | x -> x
      in
      let last = i + 4 = n in
      let c0 = v i and c1 = v (i + 1) and c2 = v (i + 2) and c3 = v (i + 3) in
      if c0 = pad || c1 = pad then raise (Bad "base64: misplaced padding")
      else if c2 = pad then begin
        if (not last) || c3 <> pad then raise (Bad "base64: misplaced padding");
        if c1 land 0x0F <> 0 then
          raise (Bad "base64: non-zero bits under padding")
      end
      else if c3 = pad then begin
        if not last then raise (Bad "base64: misplaced padding");
        if c2 land 0x03 <> 0 then
          raise (Bad "base64: non-zero bits under padding")
      end;
      let x =
        (c0 lsl 18) lor (c1 lsl 12) lor ((c2 land 63) lsl 6) lor (c3 land 63)
      in
      let o = i / 4 * 3 in
      for k = 0 to min 3 (len - o) - 1 do
        Bytes.set out (o + k) (Char.unsafe_chr ((x lsr (16 - (8 * k))) land 0xFF))
      done
    in
    try
      for q = 0 to (n / 4) - 2 do
        let i = 4 * q and o = 3 * q in
        let c0 = value i
        and c1 = value (i + 1)
        and c2 = value (i + 2)
        and c3 = value (i + 3) in
        if c0 lor c1 lor c2 lor c3 > 63 then quad i
        else begin
          let x = (c0 lsl 18) lor (c1 lsl 12) lor (c2 lsl 6) lor c3 in
          Bytes.unsafe_set out o (Char.unsafe_chr (x lsr 16));
          Bytes.unsafe_set out (o + 1) (Char.unsafe_chr ((x lsr 8) land 0xFF));
          Bytes.unsafe_set out (o + 2) (Char.unsafe_chr (x land 0xFF))
        end
      done;
      quad (n - 4);
      Ok (Bytes.unsafe_to_string out)
    with Bad msg -> Error msg
