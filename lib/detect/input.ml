type t =
  | Text of string
  | Program of Arde_tir.Types.program
  | Valid of Arde_tir.Validate.valid
  | Recorded_trace of Recorded.t
