(* Dead-export check: every [val] a library interface exports must have a
   caller outside its own module.

     dead_exports ROOT DIR...

   reads each [ROOT/lib/*/*.mli], then scans every [.ml]/[.mli] under the
   DIRs (relative to ROOT).  A value [v] of module [M] counts as called
   from a file other than [m.ml]/[m.mli] when that file

   - names it by a path such as [M.v], [Lib.M.v] or [M.Sub.v], also
     through a module alias ([module C = Lib.M] then [C.v]); or
   - opens [M] ([open], [include], [let open], [M.( ... )]) and mentions
     [v] bare.

   Comments, string and character literals are skipped.  Prints each
   export without a caller and exits 1 if there is one, 0 otherwise. *)

type token = Id of string | Dot | Lparen | Other

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_upper s = s <> "" && match s.[0] with 'A' .. 'Z' -> true | _ -> false

(* [{id|...|id}] quoted string starting at [i] (on the '{'): the index
   just past it, or [None] if [i] does not open one. *)
let quoted_string s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
    incr j
  done;
  if !j < n && s.[!j] = '|' then begin
    let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
    let cl = String.length close in
    let k = ref (!j + 1) in
    while !k + cl <= n && String.sub s !k cl <> close do
      incr k
    done;
    Some (min n (!k + cl))
  end
  else None

(* Index just past the string literal whose opening quote is at [i]. *)
let skip_string s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && s.[!j] <> '"' do
    if s.[!j] = '\\' then incr j;
    incr j
  done;
  !j + 1

(* A character literal at [i] ('x', '\n', '\123'), or a type variable. *)
let skip_char s i =
  let n = String.length s in
  if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then i + 3
  else if i + 1 < n && s.[i + 1] = '\\' then begin
    let j = ref (i + 2) in
    while !j < n && s.[!j] <> '\'' do
      incr j
    done;
    !j + 1
  end
  else i + 1

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let rec comment i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else if s.[i] = '"' then comment (skip_string s i) depth
    else comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (comment (i + 2) 1)
      | '"' -> go (skip_string s i)
      | '{' -> (
          match quoted_string s i with
          | Some j -> go j
          | None ->
              toks := Other :: !toks;
              go (i + 1))
      | '\'' -> go (skip_char s i)
      | '.' ->
          toks := Dot :: !toks;
          go (i + 1)
      | '(' ->
          toks := Lparen :: !toks;
          go (i + 1)
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          toks := Id (String.sub s i (!j - i)) :: !toks;
          go !j
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | _ ->
          toks := Other :: !toks;
          go (i + 1)
  in
  go 0;
  List.rev !toks

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What one file uses: [(module, value)] pairs named by a path, the
   modules it opens, and every bare lowercase identifier. *)
type uses = {
  qualified : (string * string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
}

let uses_of toks =
  let u =
    {
      qualified = Hashtbl.create 64;
      opened = Hashtbl.create 8;
      bare = Hashtbl.create 256;
    }
  in
  let aliases = Hashtbl.create 8 in
  (* A path with its head alias expanded, so [C.v] under
     [module C = Lib.M.Sub] reads as [Lib.M.Sub.v]. *)
  let expand = function
    | m :: rest -> (
        match Hashtbl.find_opt aliases m with
        | Some p -> p @ rest
        | None -> m :: rest)
    | [] -> []
  in
  let open_path p =
    List.iter (fun m -> Hashtbl.replace u.opened m ()) (expand p)
  in
  (* A dotted path starting at the head of [toks]: its components and
     the tokens after it. *)
  let rec path acc = function
    | Id x :: Dot :: (Id _ :: _ as rest) when is_upper x -> path (x :: acc) rest
    | Id x :: rest -> (List.rev (x :: acc), rest)
    | rest -> (List.rev acc, rest)
  in
  let last xs = List.nth xs (List.length xs - 1) in
  let rec go = function
    | [] -> ()
    | Id ("open" | "include") :: Other :: rest
    | Id ("open" | "include") :: rest ->
        let p, rest = path [] rest in
        open_path p;
        go rest
    | Id "module" :: Id a :: Other :: (Id _ :: _ as rest) when is_upper a ->
        (* [module A = P]: only a path right-hand side is an alias. *)
        let p, rest' = path [] rest in
        (match rest' with
        | Lparen :: _ -> ()
        | _ when List.for_all is_upper p -> Hashtbl.replace aliases a (expand p)
        | _ -> ());
        go rest
    | Id x :: _ as toks when is_upper x -> (
        let p, rest = path [] toks in
        (match List.rev (expand p) with
        | v :: mods when not (is_upper v) ->
            List.iter (fun m -> Hashtbl.replace u.qualified (m, v) ()) mods
        | _ -> ());
        match rest with
        | Dot :: Lparen :: _ when is_upper (last p) ->
            open_path p;
            go rest
        | _ -> go rest)
    | Id x :: rest ->
        Hashtbl.replace u.bare x ();
        go rest
    | _ :: rest -> go rest
  in
  go toks;
  u

(* The exported values of an interface: [val name] at any depth (nested
   signatures are reached as [M.Sub.name], which {!uses_of} records
   under [M] as well). *)
let exports toks =
  let rec go acc = function
    | Id "val" :: Id v :: rest when not (is_upper v) -> go (v :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] toks

let rec files_under dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           if e = "_build" || e.[0] = '.' then []
           else files_under (Filename.concat dir e))
  else if Filename.check_suffix dir ".ml" || Filename.check_suffix dir ".mli"
  then [ dir ]
  else []

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let () =
  let root, dirs =
    match Array.to_list Sys.argv with
    | _ :: root :: dirs -> (root, dirs)
    | _ ->
        prerr_endline "usage: dead_exports ROOT DIR...";
        exit 2
  in
  let files =
    List.concat_map (fun d -> files_under (Filename.concat root d)) dirs
  in
  let scanned =
    List.map (fun f -> (f, uses_of (tokenize (read_file f)))) files
  in
  let lib = Filename.concat root "lib" in
  let interfaces =
    files_under lib
    |> List.filter (fun f ->
           Filename.check_suffix f ".mli"
           && Filename.dirname (Filename.dirname f) = lib)
  in
  let dead =
    List.concat_map
      (fun mli ->
        let m = module_of mli in
        let own = Filename.remove_extension mli in
        let others =
          List.filter (fun (f, _) -> Filename.remove_extension f <> own) scanned
        in
        exports (tokenize (read_file mli))
        |> List.sort_uniq compare
        |> List.filter (fun v ->
               not
                 (List.exists
                    (fun (_, u) ->
                      Hashtbl.mem u.qualified (m, v)
                      || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare v))
                    others))
        |> List.map (fun v -> Printf.sprintf "%s: val %s" mli v))
      interfaces
  in
  List.iter print_endline dead;
  if dead <> [] then begin
    Printf.printf "%d export(s) without a caller outside their module\n"
      (List.length dead);
    exit 1
  end
