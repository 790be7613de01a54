/* The LP pivot loop in compiled code (see onlinelp/simplex.py and onlinelp/native.py).

   simplex_pivots is the bounded dual simplex on max r @ x, A x + s = b,
   0 <= x <= 1, s >= 0, from a dual feasible start, and takes the decisions
   simplex._numpy_pivots takes.  Each pass inverts the basis matrix and reads
   the basic values from that inverse; the row of largest excess leaves (the
   first on ties, the first NaN if any); the entering column has the smallest
   ratio |cbar_j| / |alpha_ij| (likewise); and when its range leaves part of
   the excess, the long step passes the breakpoints in stable (ratio, position)
   order, NaN last, while their cumulative ranges still leave part of it.
   Every sum takes all of its terms, zero products included, so that a NaN or
   infinite entry of A poisons what it poisons in numpy's matrix products.
   Where two computed ratios tie exactly, the first column wins, as in numpy;
   the values themselves may differ from numpy's in the last bits, so the
   caller solves the final basis again, and data whose ratios tie exactly in
   exact arithmetic can take another path.

   A is (m, n) by rows, row i at A + i lda (lda >= n), Gt is [A | I] by rows,
   (n + m, m), and c its costs (0 for a slack).  basis (m) and at_upper
   (n + m), the start, are updated in place.  work holds 2 m^2 + 2 m +
   6 (n + m) doubles and iwork 5 (n + m) int64s.  Returns OPTIMAL,
   NO_ENTERING_COLUMN, BUDGET_EXCEEDED (after pivot budget + 1) or
   SINGULAR_BASIS, whose codes are mirrored once, in simplex, or, before it
   reads anything else, BASIS_OUT_OF_RANGE, which native.pivot_lps raises as
   ValueError; *iterations counts the pivots begun.

   pivot_lps, the one entry point, runs simplex_pivots on each of `cells` LPs
   over their first n columns, stacked as simplex.solve_prefix_lps stacks
   them: cell k's LP at A + k m lda, Gt + k (lda + m) m, c + k (lda + m),
   b + k m, basis + k m and at_upper + k (lda + m), Gt and c in prefix layout
   (rows [0, n) the columns, [n, n + m) the slacks); the offline LP is one
   cell with lda = n.  It stops at the first cell whose status is not OPTIMAL
   and returns that status; iterations[k] counts cell k's pivots, 0 for a
   cell it did not reach. */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OPTIMAL, NO_ENTERING_COLUMN, BUDGET_EXCEEDED, SINGULAR_BASIS, BASIS_OUT_OF_RANGE };

/* inv = M^-1 by Gauss-Jordan elimination with partial pivoting (the first row
   of largest magnitude); M (m x m, by rows) is overwritten.  Returns 1 on an
   exactly zero pivot, as LAPACK's getrf reports a singular matrix. */
static int invert(int64_t m, double *M, double *inv)
{
    for (int64_t i = 0; i < m * m; i++)
        inv[i] = 0.0;
    for (int64_t i = 0; i < m; i++)
        inv[i * m + i] = 1.0;
    for (int64_t k = 0; k < m; k++) {
        int64_t p = k;
        for (int64_t i = k + 1; i < m; i++)
            if (fabs(M[i * m + k]) > fabs(M[p * m + k]))
                p = i;
        if (M[p * m + k] == 0.0)
            return 1;
        if (p != k)
            for (int64_t l = 0; l < m; l++) {
                double t = M[p * m + l];
                M[p * m + l] = M[k * m + l];
                M[k * m + l] = t;
                t = inv[p * m + l];
                inv[p * m + l] = inv[k * m + l];
                inv[k * m + l] = t;
            }
        const double pivot = M[k * m + k];
        for (int64_t l = 0; l < m; l++) {
            M[k * m + l] /= pivot;
            inv[k * m + l] /= pivot;
        }
        for (int64_t i = 0; i < m; i++) {
            if (i == k)
                continue;
            const double f = M[i * m + k];
            for (int64_t l = 0; l < m; l++) {
                M[i * m + l] -= f * M[k * m + l];
                inv[i * m + l] -= f * inv[k * m + l];
            }
        }
    }
    return 0;
}

/* simplex._long_step: the breakpoints a long dual step passes are
   order[0 .. *passed), and the one it enters at is returned.  The breakpoints
   are taken in (ratio, position) order, NaN last, as one stable sort of all of
   them would give them; an incremental quicksort (Paredes and Navarro 2006)
   orders only the prefix that the step takes.  Its partitions are stable and
   three-way, so every run of order stays in position order and a run of equal
   ratios, such as a tied family's, needs no sorting.  keys holds each ratio's
   bits, which order non-negative doubles as the doubles, and NaN as the
   largest; stack, equal and later hold size int64s each. */
static int64_t long_step(int64_t size, const double *ratios, const double *ranges, double excess,
                         int64_t *passed, int64_t *order, int64_t *stack, uint64_t *keys,
                         int64_t *equal, int64_t *later)
{
    for (int64_t e = 0; e < size; e++) {
        order[e] = e;
        memcpy(keys + e, ratios + e, sizeof *keys);
        if (ratios[e] != ratios[e])
            keys[e] = UINT64_MAX;
    }
    /* order[0 .. done) are the first breakpoints in order.  Each stack entry
       ends a run of order[done ..] that comes before every later one: e, the
       end of a run yet to be ordered, or ~e, the end of a run in order. */
    int64_t done = 0, top = 0;
    double sum = 0.0;
    stack[top++] = size;
    while (done < size) {
        const int64_t entry = stack[--top], end = entry < 0 ? ~entry : entry;
        if (entry >= 0 && end - done > 16) {
            /* partition order[done .. end) around its middle key, in order */
            const uint64_t pivot = keys[order[done + (end - done) / 2]];
            int64_t before = done, equals = 0, afters = 0;
            for (int64_t a = done; a < end; a++) {
                const int64_t e = order[a];
                order[before] = equal[equals] = later[afters] = e;
                before += keys[e] < pivot;
                equals += keys[e] == pivot;
                afters += keys[e] > pivot;
            }
            memcpy(order + before, equal, equals * sizeof *order);
            memcpy(order + before + equals, later, afters * sizeof *order);
            if (afters)
                stack[top++] = end;
            stack[top++] = ~(before + equals);
            if (before > done)
                stack[top++] = before;
            continue;
        }
        if (entry >= 0)  /* a short run: an insertion sort, stable */
            for (int64_t a = done + 1; a < end; a++) {
                const int64_t e = order[a];
                int64_t b = a;
                for (; b > done && keys[e] < keys[order[b - 1]]; b--)
                    order[b] = order[b - 1];
                order[b] = e;
            }
        for (; done < end; done++) {
            /* the cumulative ranges grow, so the breakpoints passed are a prefix */
            sum += ranges[order[done]];
            if (!(excess - sum > 0.0)) {
                *passed = done;
                return order[done];
            }
        }
    }
    *passed = size - 1;
    return order[size - 1];
}

static int64_t simplex_pivots(int64_t n, int64_t m, int64_t lda, const double *A, const double *Gt,
                              const double *c, const double *b, int64_t *basis, uint8_t *at_upper,
                              int64_t budget, double pivot_tol, double feas_tol, double *work,
                              int64_t *iwork, int64_t *iterations)
{
    const int64_t N = n + m;
    double *inv = work, *M = inv + m * m, *y = M + m * m, *w = y + m, *x = w + m;
    double *cbar = x + N, *alpha = cbar + N, *ratios = alpha + N, *ranges = ratios + N;
    uint64_t *keys = (uint64_t *)(ranges + N);
    int64_t *eligible = iwork, *order = eligible + N, *stack = order + N, *equal = stack + N,
            *later = equal + N;
    *iterations = 0;
    for (int64_t k = 0; k < m; k++)
        if (basis[k] < 0 || basis[k] >= N)
            return BASIS_OUT_OF_RANGE;
    for (;;) {
        /* the basis matrix: column k is column basis[k] of [A | I] */
        for (int64_t k = 0; k < m; k++)
            for (int64_t i = 0; i < m; i++)
                M[i * m + k] = Gt[basis[k] * m + i];
        if (invert(m, M, inv))
            return SINGULAR_BASIS;
        /* w = b - x @ [A | I], x the nonbasics' bound values (0 at a basic
           and at every slack), in four running sums along each row of A:
           numpy's order is not reproduced anyway, and one sum would wait on
           each addition */
        for (int64_t j = 0; j < n; j++)
            x[j] = at_upper[j];
        for (int64_t i = 0; i < m; i++) {
            const double *a = A + i * lda;
            double sums[4] = {0.0, 0.0, 0.0, 0.0};
            int64_t j = 0;
            for (; j + 4 <= n; j += 4)
                for (int q = 0; q < 4; q++)
                    sums[q] += x[j + q] * a[j + q];
            for (; j < n; j++)
                sums[0] += x[j] * a[j];
            w[i] = b[i] - ((sums[0] + sums[1]) + (sums[2] + sums[3]));
        }
        /* the basic values inv @ w and the row of largest excess */
        int64_t leave = 0;
        double worst = 0.0, above_leave = 0.0;
        for (int64_t k = 0; k < m; k++) {
            double v = 0.0;
            for (int64_t l = 0; l < m; l++)
                v += inv[k * m + l] * w[l];
            const double above = v - (basis[k] < n ? 1.0 : INFINITY), below = -v;
            /* np.maximum(below, above) */
            const double ex = below != below || above != above ? NAN
                              : below > above ? below : above;
            if (k == 0 || (worst == worst && (ex > worst || ex != ex))) {
                leave = k;
                worst = ex;
                above_leave = above;
            }
        }
        if (worst <= feas_tol)
            return OPTIMAL;
        if (++*iterations > budget)
            return BUDGET_EXCEEDED;
        const int to_upper = above_leave > 0.0;
        /* the prices y = inv^T c_B; the reduced costs c - [A | I] y and the
           leaving row alpha = [A | I] inv[leave], summed over A's rows for
           the structurals and over the identity's for the slacks */
        for (int64_t l = 0; l < m; l++) {
            double v = 0.0;
            for (int64_t k = 0; k < m; k++)
                v += inv[k * m + l] * c[basis[k]];
            y[l] = v;
        }
        const double *row = inv + leave * m;
        for (int64_t j = 0; j < N; j++)
            cbar[j] = alpha[j] = 0.0;
        for (int64_t k = 0; k < m; k++) {
            const double *a = A + k * lda, yk = y[k], rk = row[k];
            for (int64_t j = 0; j < n; j++) {
                cbar[j] += a[j] * yk;
                alpha[j] += a[j] * rk;
            }
        }
        for (int64_t j = n; j < N; j++)
            for (int64_t k = 0; k < m; k++) {
                cbar[j] += Gt[j * m + k] * y[k];
                alpha[j] += Gt[j * m + k] * row[k];
            }
        for (int64_t j = 0; j < N; j++)
            cbar[j] = c[j] - cbar[j];
        /* the ratio test over the nonbasics that move the leaving value
           toward its bound: raising x_j changes it at rate -alpha_j, and a
           basic column, its alpha zeroed, never enters */
        for (int64_t k = 0; k < m; k++)
            alpha[basis[k]] = 0.0;
        int64_t size = 0;
        for (int64_t j = 0; j < N; j++) {
            /* -alpha_j where the bound flag equals to_upper, without a branch */
            const double toward = alpha[j] * (double)(2 * (at_upper[j] ^ to_upper) - 1);
            eligible[size] = j;
            ranges[size] = toward;
            size += toward > pivot_tol;
        }
        if (!size)
            return NO_ENTERING_COLUMN;
        for (int64_t e = 0; e < size; e++)
            ratios[e] = fabs(cbar[eligible[e]]) / ranges[e];
        /* the entering candidate: the first smallest ratio, or the first NaN */
        double least = INFINITY;
        int nan = 0;
        for (int64_t e = 0; e < size; e++) {
            least = ratios[e] < least ? ratios[e] : least;
            nan |= ratios[e] != ratios[e];
        }
        int64_t first = 0;
        while (nan ? ratios[first] == ratios[first] : ratios[first] != least)
            first++;
        int64_t enter = eligible[first];
        if (enter < n && ranges[first] < worst) {
            /* pass every breakpoint whose flip still leaves part of the
               excess; a slack's range is infinite */
            for (int64_t e = 0; e < size; e++)
                if (eligible[e] >= n)
                    ranges[e] = INFINITY;
            int64_t passed;
            enter = eligible[long_step(size, ratios, ranges, worst, &passed, order, stack, keys,
                                       equal, later)];
            for (int64_t e = 0; e < passed; e++)
                at_upper[eligible[order[e]]] ^= 1;
        }
        /* the exchange: the entering column takes position leave, and the
           leaving variable goes to the bound it violated */
        at_upper[basis[leave]] = (uint8_t)to_upper;
        at_upper[enter] = 0;
        basis[leave] = enter;
    }
}

int64_t pivot_lps(int64_t cells, int64_t n, int64_t m, int64_t lda, const double *A,
                  const double *Gt, const double *c, const double *b, int64_t *basis,
                  uint8_t *at_upper, int64_t budget, double pivot_tol, double feas_tol,
                  double *work, int64_t *iwork, int64_t *iterations)
{
    const int64_t rows = lda + m;
    for (int64_t k = 0; k < cells; k++)
        iterations[k] = 0;
    for (int64_t k = 0; k < cells; k++) {
        const int64_t status = simplex_pivots(n, m, lda, A + k * m * lda, Gt + k * rows * m,
                                              c + k * rows, b + k * m, basis + k * m,
                                              at_upper + k * rows, budget, pivot_tol, feas_tol,
                                              work, iwork, iterations + k);
        if (status != OPTIMAL)
            return status;
    }
    return OPTIMAL;
}
