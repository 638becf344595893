/* Single-precision rounding for Intrinsic.demote.  The conversion is
   C's own: round the double to the nearest float (ties to even, under
   the default rounding mode), then widen it back exactly.  Compiled
   without value-changing float flags (-ffast-math would let the
   compiler drop the round trip or flush subnormals to zero); test_props
   checks it bit for bit against the Int32 round trip. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>

double psa_demote(double x)
{
  return (double)(float)x;
}

/* the bytecode twin: boxed argument and result */
value psa_demote_byte(value x)
{
  return caml_copy_double(psa_demote(Double_val(x)));
}
