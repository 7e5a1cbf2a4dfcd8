module Codec = Arde_runtime.Trace_codec

type t = {
  r_header : Codec.header;
  r_mode : Config.mode;
  r_options : Options.t;
  r_program : Arde_tir.Validate.valid;
  r_sections : Codec.section list;
}

let ( let* ) = Result.bind

let of_string data =
  let* header, sects =
    Result.map_error Codec.error_to_string (Codec.read_sections data)
  in
  let* mode =
    Result.map_error
      (fun e -> Printf.sprintf "trace header mode: %s" e)
      (Config.parse_mode header.Codec.h_mode)
  in
  let* options_json =
    Result.map_error
      (fun e -> Printf.sprintf "trace header options: %s" e)
      (Arde_util.Json.parse header.Codec.h_options)
  in
  let* options =
    Result.map_error
      (fun e -> Printf.sprintf "trace header options: %s" e)
      (Options.of_json options_json)
  in
  let* program =
    Result.map_error
      (fun e ->
        Printf.sprintf "trace program: %s" (Arde_tir.Parse.error_to_string e))
      (Arde_tir.Parse.program header.Codec.h_program)
  in
  let* program =
    match Arde_tir.Validate.validate program with
    | Ok valid -> Ok valid
    | Error errs ->
        Error
          (Printf.sprintf "trace program fails validation: %s"
             (String.concat "; "
                (List.map Arde_tir.Validate.error_to_string errs)))
  in
  let actual =
    Digest.to_hex
      (Analysis_cache.digest_of_program (program :> Arde_tir.Types.program))
  in
  let* () =
    if String.equal actual header.Codec.h_digest then Ok ()
    else
      Error
        (Printf.sprintf
           "trace digest mismatch: header claims %s, embedded program digests \
            to %s"
           header.Codec.h_digest actual)
  in
  Ok
    {
      r_header = header;
      r_mode = mode;
      r_options = options;
      r_program = program;
      r_sections = sects;
    }

let mode t = t.r_mode
let options t = t.r_options
let program t = t.r_program
let sections t = t.r_sections
let digest_hex t = t.r_header.Codec.h_digest
let source t = t.r_header.Codec.h_source
let seeds t = List.map (fun s -> s.Codec.s_seed) t.r_sections

let n_events t =
  List.fold_left (fun acc s -> acc + s.Codec.s_n_events) 0 t.r_sections
