#include "random.hh"

#include <array>
#include <bit>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

namespace {

/** Bits of xoshiro256** state, and the degree of its update's
 *  characteristic polynomial. */
constexpr size_t kStateBits = 256;

/** A polynomial over GF(2) of degree < 256; bit i is x^i's coefficient. */
using Poly = std::array<uint64_t, 4>;

/**
 * Minimal polynomial of a bit sequence that obeys a linear recurrence
 * of degree 256, below its leading x^256 term, by Berlekamp-Massey
 * over its first 2 * 256 bits.
 */
Poly
minimalPolynomial(const std::vector<uint8_t>& bits)
{
    drs_assert(bits.size() == 2 * kStateBits, "need 512 sequence bits");
    // c is the connection polynomial 1 + c_1 x + ... + c_len x^len.
    std::vector<uint8_t> c(bits.size() + 1, 0), prev(bits.size() + 1, 0);
    c[0] = prev[0] = 1;
    size_t len = 0;
    size_t shift = 1;
    for (size_t n = 0; n < bits.size(); n++) {
        uint8_t d = bits[n];
        for (size_t i = 1; i <= len; i++)
            d ^= c[i] & bits[n - i];
        if (d == 0) {
            shift++;
            continue;
        }
        const std::vector<uint8_t> saved = c;
        for (size_t i = 0; i + shift < c.size(); i++)
            c[i + shift] ^= prev[i];
        if (2 * len <= n) {
            len = n + 1 - len;
            prev = saved;
            shift = 1;
        } else {
            shift++;
        }
    }
    drs_assert(len == kStateBits, "the sequence's minimal polynomial has "
               "degree ", len, ", not 256");
    // p(x) = x^256 c(1/x): x^(256 - i) takes c_i.
    Poly p{};
    for (size_t i = 1; i <= kStateBits; i++)
        p[(kStateBits - i) / 64] |= uint64_t{c[i]} << ((kStateBits - i) % 64);
    return p;
}

/** a * x mod p. Branch-free: the bits it tests are coin flips. */
Poly
timesX(Poly a, const Poly& p)
{
    const uint64_t carry = 0 - (a[3] >> 63);
    for (size_t w = 3; w > 0; w--)
        a[w] = (a[w] << 1 | a[w - 1] >> 63) ^ (p[w] & carry);
    a[0] = a[0] << 1 ^ (p[0] & carry);
    return a;
}

/**
 * What a jump needs of the update's characteristic polynomial p:
 * p below its leading x^256 term, and x^(2i) mod p for every i < 256.
 * Squaring is linear over GF(2), so a^2 mod p is the sum of the
 * squares[i] whose a_i is set.
 */
struct JumpTables
{
    Poly p;
    std::array<Poly, kStateBits> squares;

    explicit JumpTables(const Poly& poly) : p(poly)
    {
        squares[0] = Poly{1, 0, 0, 0};
        for (size_t i = 1; i < kStateBits; i++)
            squares[i] = timesX(timesX(squares[i - 1], p), p);
    }

    Poly
    square(const Poly& a) const
    {
        Poly r{};
        for (size_t i = 0; i < kStateBits; i++) {
            const uint64_t take = 0 - (a[i / 64] >> (i % 64) & 1);
            for (size_t w = 0; w < 4; w++)
                r[w] ^= squares[i][w] & take;
        }
        return r;
    }
};

} // namespace

void
Rng::discard(uint64_t n)
{
    if (n < kStateBits) {
        for (; n > 0; n--)
            step();
        return;
    }
    // The update's characteristic polynomial: the minimal polynomial
    // of one state bit's sequence, since xoshiro256**'s period of
    // 2^256 - 1 leaves no smaller one.
    static const JumpTables tables([] {
        Rng rng(1);
        std::vector<uint8_t> bits(2 * kStateBits);
        for (uint8_t& b : bits) {
            b = static_cast<uint8_t>(rng.state[0] & 1);
            rng.step();
        }
        return minimalPolynomial(bits);
    }());

    // x^n mod p, square-and-multiply from n's top bit down.
    Poly jump{};
    jump[0] = 1;
    for (int bit = std::bit_width(n) - 1; bit >= 0; bit--) {
        jump = tables.square(jump);
        if (n >> bit & 1)
            jump = timesX(jump, tables.p);
    }

    // T^n s = sum of jump_i T^i s over GF(2).
    uint64_t acc[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < kStateBits; i++) {
        const uint64_t take = 0 - (jump[i / 64] >> (i % 64) & 1);
        for (size_t w = 0; w < 4; w++)
            acc[w] ^= state[w] & take;
        step();
    }
    for (size_t w = 0; w < 4; w++)
        state[w] = acc[w];
}

} // namespace deeprecsys
