/* Compiled counting kernel: count_stratum with the signature and results of
 * _pure.count_stratum, which documents the calling convention.
 *
 * Every array argument arrives as an array('i') buffer.  Before the odometer
 * runs without the GIL, each buffer is checked for item size, length and the
 * range of the values it holds, so that no argument can make the loop read
 * outside a buffer, and the union flag must be 0 or 1; a failed check raises
 * ValueError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { FIXED, FREE_POS, FREE_START, GEN_OFF, GEN_COEFF, GEN_EXPS,
       MUL, ADD, POWT, NBUF };

static const char *const buf_names[NBUF] = {"fixed", "free_pos",
    "free_start", "gen_off", "gen_coeff", "gen_exps", "mul", "add", "powt"};

typedef struct {
    Py_ssize_t q, nvars, stride;
    int ngens, any;
    const int *off, *coeff, *exps, *mul, *add, *powt;
} Gens;

/* 1 when every generator vanishes at the value indices x (with G->any set,
 * when some generator does), else 0. */
static int
zero_here(const Gens *G, const int *x)
{
    for (int g = 0; g < G->ngens; g++) {
        int acc = 0;
        for (int t = G->off[g]; t < G->off[g + 1]; t++) {
            int v = G->coeff[t];
            const int *row = G->exps + t * G->nvars;
            for (Py_ssize_t i = 0; i < G->nvars; i++) {
                int e = row[i];
                if (e) {
                    v = G->mul[v * G->q + G->powt[x[i] * G->stride + e]];
                    if (v == 0)
                        break;
                }
            }
            acc = G->add[acc * G->q + v];
        }
        if ((acc == 0) == G->any)
            return G->any;
    }
    return !G->any;
}

/* The odometer over the k free positions, last position fastest. */
static long long
run(const Gens *G, int *x, Py_ssize_t k, const int *free_pos,
    const int *free_start, int *idx)
{
    long long count = 0;
    Py_ssize_t j;

    if (k == 0)
        return zero_here(G, x);
    for (j = 0; j < k; j++) {
        idx[j] = free_start[j];
        x[free_pos[j]] = idx[j];
    }
    for (;;) {
        count += zero_here(G, x);
        for (j = k - 1; j >= 0; j--) {
            if (++idx[j] < G->q) {
                x[free_pos[j]] = idx[j];
                break;
            }
            idx[j] = free_start[j];
            x[free_pos[j]] = idx[j];
        }
        if (j < 0)
            return count;
    }
}

static int
check_len(int which, const Py_ssize_t *n, Py_ssize_t want)
{
    if (n[which] == want)
        return 0;
    PyErr_Format(PyExc_ValueError, "count_stratum: len(%s) is %zd, expected %zd",
                 buf_names[which], n[which], want);
    return -1;
}

/* Every value of buffer b lies in [0, hi). */
static int
check_range(const Py_buffer *b, int which, Py_ssize_t hi)
{
    const int *p = b->buf;
    for (Py_ssize_t i = 0; i < b->len / b->itemsize; i++) {
        if (p[i] < 0 || p[i] >= hi) {
            PyErr_Format(PyExc_ValueError,
                         "count_stratum: %s[%zd] is %d, outside [0, %zd)",
                         buf_names[which], i, p[i], hi);
            return -1;
        }
    }
    return 0;
}

static PyObject *
count_stratum(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"q", "nvars", "fixed", "free_pos", "free_start",
        "ngens", "gen_off", "gen_coeff", "gen_exps", "mul", "add", "powt",
        "maxd", "union", NULL};
    int q, nvars, ngens, maxd, any = 0;
    Py_buffer b[NBUF];
    Py_ssize_t n[NBUF];
    int *x = NULL, *idx, i;
    long long count;
    PyObject *result = NULL;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "iiy*y*y*iy*y*y*y*y*y*i|i:count_stratum", kwlist,
            &q, &nvars, &b[FIXED], &b[FREE_POS], &b[FREE_START], &ngens,
            &b[GEN_OFF], &b[GEN_COEFF], &b[GEN_EXPS], &b[MUL], &b[ADD],
            &b[POWT], &maxd, &any))
        return NULL;

    for (i = 0; i < NBUF; i++) {
        if (b[i].itemsize != (Py_ssize_t)sizeof(int)) {
            PyErr_Format(PyExc_ValueError,
                         "count_stratum: %s has item size %zd, expected %zd",
                         buf_names[i], b[i].itemsize, (Py_ssize_t)sizeof(int));
            goto done;
        }
        n[i] = b[i].len / b[i].itemsize;
    }
    if (q < 1 || nvars < 0 || ngens < 0 || maxd < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "count_stratum: q must be positive and nvars, ngens, "
                        "maxd non-negative");
        goto done;
    }
    if (any != 0 && any != 1) {
        PyErr_Format(PyExc_ValueError,
                     "count_stratum: union is %d, expected 0 or 1", any);
        goto done;
    }
    if (check_len(FIXED, n, nvars)
        || check_len(FREE_START, n, n[FREE_POS])
        || check_len(GEN_OFF, n, (Py_ssize_t)ngens + 1)
        || check_len(GEN_EXPS, n, n[GEN_COEFF] * nvars)
        || check_len(MUL, n, (Py_ssize_t)q * q)
        || check_len(ADD, n, (Py_ssize_t)q * q)
        || check_len(POWT, n, (Py_ssize_t)q * ((Py_ssize_t)maxd + 1))
        || check_range(&b[FIXED], FIXED, q)
        || check_range(&b[FREE_POS], FREE_POS, nvars)
        || check_range(&b[FREE_START], FREE_START, q)
        || check_range(&b[GEN_OFF], GEN_OFF, n[GEN_COEFF] + 1)
        || check_range(&b[GEN_COEFF], GEN_COEFF, q)
        || check_range(&b[GEN_EXPS], GEN_EXPS, (Py_ssize_t)maxd + 1)
        || check_range(&b[MUL], MUL, q)
        || check_range(&b[ADD], ADD, q)
        || check_range(&b[POWT], POWT, q))
        goto done;

    x = PyMem_Malloc((nvars + n[FREE_POS] + 2) * sizeof(int));
    if (x == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    idx = x + nvars + 1;
    memcpy(x, b[FIXED].buf, nvars * sizeof(int));
    {
        Gens G = {q, nvars, (Py_ssize_t)maxd + 1, ngens, any, b[GEN_OFF].buf,
                  b[GEN_COEFF].buf, b[GEN_EXPS].buf, b[MUL].buf, b[ADD].buf,
                  b[POWT].buf};
        Py_BEGIN_ALLOW_THREADS
        count = run(&G, x, n[FREE_POS], b[FREE_POS].buf, b[FREE_START].buf,
                    idx);
        Py_END_ALLOW_THREADS
    }
    result = PyLong_FromLongLong(count);

done:
    PyMem_Free(x);
    for (i = 0; i < NBUF; i++)
        PyBuffer_Release(&b[i]);
    return result;
}

static PyMethodDef methods[] = {
    {"count_stratum", (PyCFunction)(void (*)(void))count_stratum,
     METH_VARARGS | METH_KEYWORDS,
     "Count the common zeros of the generators on one lead stratum."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled counting kernel; same contract as motivic.count._pure.", -1,
    methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&module);
}
