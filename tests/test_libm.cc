/**
 * @file
 * Pins the bits of the libm calls the load generator and the diurnal
 * profile draw through: std::log, exp, cos, sin, pow and sqrt
 * (base/random.hh, loadgen/distributions.cc). glibc picks some of
 * them per CPU at load time, so a host whose libm rounds one of them
 * differently fails here, named by function and input, instead of
 * showing up as a golden diff. The expected bits were recorded with
 * glibc on x86-64.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace deeprecsys {
namespace {

struct LibmPin
{
    const char* name;
    double (*fn)(double, double);
    double x;
    double y;          ///< pow's exponent; unused by the others
    double expected;
};

double logOf(double x, double) { return std::log(x); }
double expOf(double x, double) { return std::exp(x); }
double cosOf(double x, double) { return std::cos(x); }
double sinOf(double x, double) { return std::sin(x); }
double powOf(double x, double y) { return std::pow(x, y); }
double sqrtOf(double x, double) { return std::sqrt(x); }

// Inputs span what the generators pass: uniform draws and their
// complements, a lognormal body's exponents, Box-Muller and diurnal
// angles, and the Pareto tail's 1 / 1.3 exponent.
const LibmPin kPins[] = {
    {"log", logOf, 0.3, 0.0, -0x1.34378fcbda721p+0},
    {"log", logOf, 1e-300, 0.0, -0x1.5963447f87fb5p+9},
    {"log", logOf, 0.999999, 0.0, -0x1.0c6f82d74d23p-20},
    {"log", logOf, 2.5, 0.0, 0x1.d5240f0e0e078p-1},
    {"log", logOf, 1234.5, 0.0, 0x1.c79436f818745p+2},
    {"exp", expOf, -0.5, 0.0, 0x1.368b2fc6f960ap-1},
    {"exp", expOf, 4.0943445622221, 0.0, 0x1.dfffffffffffep+5},
    {"exp", expOf, 5.2, 0.0, 0x1.6a8b63497cc0ap+7},
    {"exp", expOf, -30.0, 0.0, 0x1.a56e0c2ac7f75p-44},
    {"exp", expOf, 0.001, 0.0, 0x1.0041919b7ee34p+0},
    {"cos", cosOf, 0.7728, 0.0, 0x1.6e9222d19acfep-1},
    {"cos", cosOf, 3.0, 0.0, -0x1.fae04be85e5d2p-1},
    {"cos", cosOf, 5.9, 0.0, 0x1.dade73ef95029p-1},
    {"cos", cosOf, 1e-5, 0.0, 0x1.ffffffff920c8p-1},
    {"cos", cosOf, 100.25, 0.0, 0x1.ebec72ba6b0ecp-1},
    {"sin", sinOf, 0.7728, 0.0, 0x1.6572f44fbff0dp-1},
    {"sin", sinOf, 3.0, 0.0, 0x1.210386db6d55bp-3},
    {"sin", sinOf, 5.9, 0.0, -0x1.7ed98640bbd1bp-2},
    {"sin", sinOf, 1e-5, 0.0, 0x1.4f8b588e1e8a2p-17},
    {"sin", sinOf, 100.25, 0.0, -0x1.1bf00980dc35cp-2},
    {"pow", powOf, 0.37, 1.0 / 1.3, 0x1.dc97bed636132p-2},
    {"pow", powOf, 0.999, 1.0 / 1.3, 0x1.ff9b29eb45e0dp-1},
    {"pow", powOf, 1e-6, 1.0 / 1.3, 0x1.96c1d9c9f0f1ep-16},
    {"pow", powOf, 0.5, 2.5, 0x1.6a09e667f3bcdp-3},
    {"sqrt", sqrtOf, 2.0, 0.0, 0x1.6a09e667f3bcdp+0},
    {"sqrt", sqrtOf, 7.3, 0.0, 0x1.59d642bc4fc1cp+1},
    {"sqrt", sqrtOf, 1e-300, 0.0, 0x1.a2fe76a3f9475p-499},
    {"sqrt", sqrtOf, 1.4142135623730951, 0.0, 0x1.306fe0a31b715p+0},
};

TEST(LibmPin, GeneratorCallsKeepTheirRecordedBits)
{
    for (const LibmPin& pin : kPins) {
        // Through volatile, so the call runs in this process's libm
        // rather than being folded at compile time.
        volatile double x = pin.x;
        volatile double y = pin.y;
        const double got = pin.fn(x, y);
        std::ostringstream call;
        call << std::hexfloat << pin.name << "(" << pin.x;
        if (pin.fn == powOf)
            call << ", " << pin.y;
        call << ")";
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(pin.expected))
            << call.str() << " = " << std::hexfloat << got << ", recorded "
            << pin.expected;
    }
}

} // namespace
} // namespace deeprecsys
