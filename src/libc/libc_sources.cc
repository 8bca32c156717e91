#include "libc/libc_sources.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sulong
{

namespace
{

// ---------------------------------------------------------------------
// Prelude: shared types and globals.
// ---------------------------------------------------------------------
const char *PRELUDE = R"C(
typedef unsigned long size_t;
typedef long ssize_t;
typedef long ptrdiff_t;
typedef signed char int8_t;
typedef unsigned char uint8_t;
typedef short int16_t;
typedef unsigned short uint16_t;
typedef int int32_t;
typedef unsigned int uint32_t;
typedef long int64_t;
typedef unsigned long uint64_t;
typedef long intptr_t;
typedef unsigned long uintptr_t;

enum { NULL = 0, EOF = -1, RAND_MAX = 2147483647 };

struct __FILE { int fd; };
typedef struct __FILE FILE;

FILE __stdin_file = {0};
FILE __stdout_file = {1};
FILE __stderr_file = {2};
FILE *stdin = &__stdin_file;
FILE *stdout = &__stdout_file;
FILE *stderr = &__stderr_file;
)C";

// ---------------------------------------------------------------------
// ctype.h
// ---------------------------------------------------------------------
const char *CTYPE_C = R"C(
int isdigit(int c) { return c >= '0' && c <= '9'; }
int isupper(int c) { return c >= 'A' && c <= 'Z'; }
int islower(int c) { return c >= 'a' && c <= 'z'; }
int isalpha(int c) { return isupper(c) || islower(c); }
int isalnum(int c) { return isalpha(c) || isdigit(c); }
int isspace(int c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
        c == '\v' || c == '\f';
}
int isxdigit(int c)
{
    return isdigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}
int isprint(int c) { return c >= 32 && c < 127; }
int ispunct(int c) { return isprint(c) && c != ' ' && !isalnum(c); }
int iscntrl(int c) { return (c >= 0 && c < 32) || c == 127; }
int toupper(int c) { return islower(c) ? c - 'a' + 'A' : c; }
int tolower(int c) { return isupper(c) ? c - 'A' + 'a' : c; }
)C";

// ---------------------------------------------------------------------
// string.h — safe variant: byte-wise loops, no tricks.
// ---------------------------------------------------------------------
const char *STRING_SAFE_C = R"C(
size_t strlen(const char *s)
{
    size_t n = 0;
    while (s[n] != 0)
        n++;
    return n;
}

char *strcpy(char *dest, const char *src)
{
    size_t i = 0;
    while (src[i] != 0) {
        dest[i] = src[i];
        i++;
    }
    dest[i] = 0;
    return dest;
}

char *strncpy(char *dest, const char *src, size_t n)
{
    size_t i = 0;
    while (i < n && src[i] != 0) {
        dest[i] = src[i];
        i++;
    }
    while (i < n) {
        dest[i] = 0;
        i++;
    }
    return dest;
}

char *strcat(char *dest, const char *src)
{
    size_t d = strlen(dest);
    size_t i = 0;
    while (src[i] != 0) {
        dest[d + i] = src[i];
        i++;
    }
    dest[d + i] = 0;
    return dest;
}

char *strncat(char *dest, const char *src, size_t n)
{
    size_t d = strlen(dest);
    size_t i = 0;
    while (i < n && src[i] != 0) {
        dest[d + i] = src[i];
        i++;
    }
    dest[d + i] = 0;
    return dest;
}

int strcmp(const char *a, const char *b)
{
    size_t i = 0;
    while (a[i] != 0 && a[i] == b[i])
        i++;
    return (unsigned char)a[i] - (unsigned char)b[i];
}

int strncmp(const char *a, const char *b, size_t n)
{
    size_t i = 0;
    if (n == 0)
        return 0;
    while (i + 1 < n && a[i] != 0 && a[i] == b[i])
        i++;
    return (unsigned char)a[i] - (unsigned char)b[i];
}

char *strchr(const char *s, int c)
{
    size_t i = 0;
    while (1) {
        if (s[i] == (char)c)
            return (char *)(s + i);
        if (s[i] == 0)
            return NULL;
        i++;
    }
}

char *strrchr(const char *s, int c)
{
    const char *found = NULL;
    size_t i = 0;
    while (1) {
        if (s[i] == (char)c)
            found = s + i;
        if (s[i] == 0)
            return (char *)found;
        i++;
    }
}

char *strstr(const char *haystack, const char *needle)
{
    if (needle[0] == 0)
        return (char *)haystack;
    for (size_t i = 0; haystack[i] != 0; i++) {
        size_t j = 0;
        while (needle[j] != 0 && haystack[i + j] == needle[j])
            j++;
        if (needle[j] == 0)
            return (char *)(haystack + i);
    }
    return NULL;
}

size_t strspn(const char *s, const char *accept)
{
    size_t n = 0;
    while (s[n] != 0 && strchr(accept, s[n]) != NULL)
        n++;
    return n;
}

size_t strcspn(const char *s, const char *reject)
{
    size_t n = 0;
    while (s[n] != 0 && strchr(reject, s[n]) == NULL)
        n++;
    return n;
}

char *strpbrk(const char *s, const char *accept)
{
    while (*s != 0) {
        if (strchr(accept, *s) != NULL)
            return (char *)s;
        s++;
    }
    return NULL;
}

char *strtok(char *str, const char *delim)
{
    static char *saved = NULL;
    if (str != NULL)
        saved = str;
    if (saved == NULL)
        return NULL;
    saved += strspn(saved, delim);
    if (*saved == 0) {
        saved = NULL;
        return NULL;
    }
    char *token = saved;
    saved += strcspn(saved, delim);
    if (*saved != 0) {
        *saved = 0;
        saved++;
    } else {
        saved = NULL;
    }
    return token;
}

char *strdup(const char *s)
{
    size_t n = strlen(s);
    char *copy = malloc(n + 1);
    if (copy == NULL)
        return NULL;
    for (size_t i = 0; i <= n; i++)
        copy[i] = s[i];
    return copy;
}

void *memset(void *dest, int c, size_t n)
{
    char *d = dest;
    for (size_t i = 0; i < n; i++)
        d[i] = (char)c;
    return dest;
}

void *memcpy(void *dest, const void *src, size_t n)
{
    /* Pointer-sized copies keep pointer payloads intact on the managed
     * engine; byte copies handle the rest. */
    if (n % 8 == 0 && (uintptr_t)dest % 8 == 0 && (uintptr_t)src % 8 == 0) {
        void **d = dest;
        void **s = (void **)src;
        for (size_t i = 0; i < n / 8; i++)
            d[i] = s[i];
        return dest;
    }
    char *d = dest;
    const char *s = src;
    for (size_t i = 0; i < n; i++)
        d[i] = s[i];
    return dest;
}

void *memmove(void *dest, const void *src, size_t n)
{
    char *d = dest;
    const char *s = src;
    if (d == s || n == 0)
        return dest;
    if (d < s) {
        for (size_t i = 0; i < n; i++)
            d[i] = s[i];
    } else {
        size_t i = n;
        while (i > 0) {
            i--;
            d[i] = s[i];
        }
    }
    return dest;
}

int memcmp(const void *a, const void *b, size_t n)
{
    const unsigned char *x = a;
    const unsigned char *y = b;
    for (size_t i = 0; i < n; i++) {
        if (x[i] != y[i])
            return x[i] - y[i];
    }
    return 0;
}

size_t strnlen(const char *s, size_t maxlen)
{
    size_t n = 0;
    while (n < maxlen && s[n] != 0)
        n++;
    return n;
}

int strcasecmp(const char *a, const char *b)
{
    size_t i = 0;
    while (a[i] != 0 && tolower((unsigned char)a[i]) ==
           tolower((unsigned char)b[i]))
        i++;
    return tolower((unsigned char)a[i]) - tolower((unsigned char)b[i]);
}

int strncasecmp(const char *a, const char *b, size_t n)
{
    if (n == 0)
        return 0;
    size_t i = 0;
    while (i + 1 < n && a[i] != 0 &&
           tolower((unsigned char)a[i]) == tolower((unsigned char)b[i]))
        i++;
    return tolower((unsigned char)a[i]) - tolower((unsigned char)b[i]);
}

void bzero(void *dest, size_t n) { memset(dest, 0, n); }

void *memchr(const void *s, int c, size_t n)
{
    const unsigned char *p = s;
    for (size_t i = 0; i < n; i++) {
        if (p[i] == (unsigned char)c)
            return (void *)(p + i);
    }
    return NULL;
}
)C";

// ---------------------------------------------------------------------
// string.h — native-optimized variant: word-wise tricks like production
// libcs (Hacker's-Delight strlen). These read past the terminator, which
// is why shadow-memory tools cannot instrument real libc code (P4).
// ---------------------------------------------------------------------
const char *STRING_OPT_PREFIX = R"C(
size_t strlen(const char *s)
{
    /* Align, then scan a word at a time using the (w-0x0101..)&~w&0x8080..
     * zero-byte trick; deliberately reads up to 7 bytes past the NUL. */
    const char *p = s;
    while ((uintptr_t)p % 8 != 0) {
        if (*p == 0)
            return (size_t)(p - s);
        p++;
    }
    const unsigned long *w = (const unsigned long *)p;
    while (1) {
        unsigned long v = *w;
        if (((v - 0x0101010101010101ul) & ~v & 0x8080808080808080ul) != 0) {
            const char *q = (const char *)w;
            while (*q != 0)
                q++;
            return (size_t)(q - s);
        }
        w++;
    }
}

int strcmp(const char *a, const char *b)
{
    /* Word-wise compare while both pointers are aligned. */
    while ((uintptr_t)a % 8 == 0 && (uintptr_t)b % 8 == 0) {
        unsigned long va = *(const unsigned long *)a;
        unsigned long vb = *(const unsigned long *)b;
        if (va != vb)
            break;
        if (((va - 0x0101010101010101ul) & ~va &
             0x8080808080808080ul) != 0) {
            return 0;
        }
        a += 8;
        b += 8;
    }
    size_t i = 0;
    while (a[i] != 0 && a[i] == b[i])
        i++;
    return (unsigned char)a[i] - (unsigned char)b[i];
}
)C";

// ---------------------------------------------------------------------
// stdlib.h
// ---------------------------------------------------------------------
const char *STDLIB_C = R"C(
void exit(int code) { __sys_exit(code); }
void abort(void) { __sys_exit(134); }

int abs(int v) { return v < 0 ? -v : v; }
long labs(long v) { return v < 0 ? -v : v; }

static unsigned long __rand_state = 1;

void srand(unsigned int seed) { __rand_state = seed; }

int rand(void)
{
    __rand_state = __rand_state * 6364136223846793005ul +
        1442695040888963407ul;
    return (int)((__rand_state >> 33) & 0x7fffffff);
}

long strtol(const char *s, char **endptr, int base)
{
    size_t i = 0;
    while (isspace((unsigned char)s[i]))
        i++;
    int negative = 0;
    if (s[i] == '+' || s[i] == '-') {
        negative = s[i] == '-';
        i++;
    }
    if ((base == 0 || base == 16) && s[i] == '0' &&
        (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        base = 16;
        i += 2;
    } else if (base == 0 && s[i] == '0') {
        base = 8;
    } else if (base == 0) {
        base = 10;
    }
    long value = 0;
    int any = 0;
    while (1) {
        int c = (unsigned char)s[i];
        int digit;
        if (isdigit(c))
            digit = c - '0';
        else if (c >= 'a' && c <= 'z')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'Z')
            digit = c - 'A' + 10;
        else
            break;
        if (digit >= base)
            break;
        value = value * base + digit;
        any = 1;
        i++;
    }
    if (endptr != NULL)
        *endptr = (char *)(any ? s + i : s);
    return negative ? -value : value;
}

unsigned long strtoul(const char *s, char **endptr, int base)
{
    size_t i = 0;
    while (isspace((unsigned char)s[i]))
        i++;
    int negative = 0;
    if (s[i] == '+' || s[i] == '-') {
        negative = s[i] == '-';
        i++;
    }
    if ((base == 0 || base == 16) && s[i] == '0' &&
        (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        base = 16;
        i += 2;
    } else if (base == 0 && s[i] == '0') {
        base = 8;
    } else if (base == 0) {
        base = 10;
    }
    unsigned long value = 0;
    int any = 0;
    while (1) {
        int c = (unsigned char)s[i];
        int digit;
        if (isdigit(c))
            digit = c - '0';
        else if (c >= 'a' && c <= 'z')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'Z')
            digit = c - 'A' + 10;
        else
            break;
        if (digit >= base)
            break;
        value = value * (unsigned long)base + (unsigned long)digit;
        any = 1;
        i++;
    }
    if (endptr != NULL)
        *endptr = (char *)(any ? s + i : s);
    if (negative)
        return (unsigned long)0 - value;
    return value;
}

int atoi(const char *s) { return (int)strtol(s, NULL, 10); }
long atol(const char *s) { return strtol(s, NULL, 10); }
long atoll(const char *s) { return strtol(s, NULL, 10); }
long llabs(long v) { return v < 0 ? -v : v; }

double strtod(const char *s, char **endptr)
{
    size_t i = 0;
    while (isspace((unsigned char)s[i]))
        i++;
    int negative = 0;
    if (s[i] == '+' || s[i] == '-') {
        negative = s[i] == '-';
        i++;
    }
    double value = 0;
    while (isdigit((unsigned char)s[i])) {
        value = value * 10.0 + (s[i] - '0');
        i++;
    }
    if (s[i] == '.') {
        i++;
        double scale = 0.1;
        while (isdigit((unsigned char)s[i])) {
            value += (s[i] - '0') * scale;
            scale *= 0.1;
            i++;
        }
    }
    if (s[i] == 'e' || s[i] == 'E') {
        i++;
        int eneg = 0;
        if (s[i] == '+' || s[i] == '-') {
            eneg = s[i] == '-';
            i++;
        }
        int ev = 0;
        while (isdigit((unsigned char)s[i])) {
            ev = ev * 10 + (s[i] - '0');
            i++;
        }
        while (ev > 0) {
            value = eneg ? value / 10.0 : value * 10.0;
            ev--;
        }
    }
    if (endptr != NULL)
        *endptr = (char *)(s + i);
    return negative ? -value : value;
}

double atof(const char *s) { return strtod(s, NULL); }

static void __qsort_swap(char *a, char *b, size_t size)
{
    if (size % 8 == 0) {
        void **pa = (void **)a;
        void **pb = (void **)b;
        for (size_t i = 0; i < size / 8; i++) {
            void *tmp = pa[i];
            pa[i] = pb[i];
            pb[i] = tmp;
        }
        return;
    }
    for (size_t i = 0; i < size; i++) {
        char tmp = a[i];
        a[i] = b[i];
        b[i] = tmp;
    }
}

static void __qsort_rec(char *base, long lo, long hi, size_t size,
                        int (*cmp)(const void *, const void *))
{
    while (lo < hi) {
        /* Median-of-ends pivot, Hoare-style partition. */
        long mid = lo + (hi - lo) / 2;
        __qsort_swap(base + mid * size, base + hi * size, size);
        char *pivot = base + hi * size;
        long store = lo;
        for (long i = lo; i < hi; i++) {
            if (cmp(base + i * size, pivot) < 0) {
                __qsort_swap(base + i * size, base + store * size, size);
                store++;
            }
        }
        __qsort_swap(base + store * size, base + hi * size, size);
        if (store - lo < hi - store) {
            __qsort_rec(base, lo, store - 1, size, cmp);
            lo = store + 1;
        } else {
            __qsort_rec(base, store + 1, hi, size, cmp);
            hi = store - 1;
        }
    }
}

void qsort(void *base, size_t nmemb, size_t size,
           int (*cmp)(const void *, const void *))
{
    if (nmemb > 1)
        __qsort_rec(base, 0, (long)nmemb - 1, size, cmp);
}

void *bsearch(const void *key, const void *base, size_t nmemb, size_t size,
              int (*cmp)(const void *, const void *))
{
    size_t lo = 0;
    size_t hi = nmemb;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        const char *elem = (const char *)base + mid * size;
        int c = cmp(key, elem);
        if (c == 0)
            return (void *)elem;
        if (c < 0)
            hi = mid;
        else
            lo = mid + 1;
    }
    return NULL;
}
)C";

// ---------------------------------------------------------------------
// stdio.h
// ---------------------------------------------------------------------
const char *STDIO_C = R"C(
/* One-character pushback shared by getchar/fgetc/fgets/scanf/ungetc. */
static int __scan_ungot = -2; /* -2: empty */

static int __scan_get(void)
{
    if (__scan_ungot != -2) {
        int c = __scan_ungot;
        __scan_ungot = -2;
        return c;
    }
    return __sys_getchar();
}

static void __scan_unget(int c) { __scan_ungot = c; }

int putchar(int c)
{
    char b = (char)c;
    __sys_write(1, &b, 1);
    return c;
}

int getchar(void) { return __scan_get(); }

int fputc(int c, FILE *f)
{
    char b = (char)c;
    __sys_write(f->fd, &b, 1);
    return c;
}

int fputs(const char *s, FILE *f)
{
    size_t n = strlen(s);
    __sys_write(f->fd, s, (long)n);
    return 0;
}

int puts(const char *s)
{
    fputs(s, stdout);
    putchar('\n');
    return 0;
}

size_t fwrite(const void *ptr, size_t size, size_t nmemb, FILE *f)
{
    __sys_write(f->fd, ptr, (long)(size * nmemb));
    return nmemb;
}

int fgetc(FILE *f)
{
    if (f->fd != 0)
        return EOF;
    return __scan_get();
}

char *fgets(char *s, int n, FILE *f)
{
    if (n <= 0 || f->fd != 0)
        return NULL;
    int i = 0;
    while (i < n - 1) {
        int c = __scan_get();
        if (c == EOF) {
            if (i == 0)
                return NULL;
            break;
        }
        s[i] = (char)c;
        i++;
        if (c == '\n')
            break;
    }
    s[i] = 0;
    return s;
}

/* ------------------------------------------------------------------ */
/* printf family: one core writing into a sink (fd or buffer).        */
/* ------------------------------------------------------------------ */

struct __sink {
    int fd;       /* -1 when writing to buf */
    char *buf;
    long pos;
    long cap;     /* max chars excluding the NUL */
};

static void __emit(struct __sink *sink, char c)
{
    if (sink->fd >= 0) {
        __sys_write(sink->fd, &c, 1);
        sink->pos++;
        return;
    }
    if (sink->pos < sink->cap)
        sink->buf[sink->pos] = c;
    sink->pos++;
}

static void __emit_str(struct __sink *sink, const char *s, long n)
{
    for (long i = 0; i < n; i++)
        __emit(sink, s[i]);
}

static int __fmt_ulong(unsigned long v, unsigned long base, int upper,
                       char *out)
{
    char tmp[32];
    int n = 0;
    if (v == 0) {
        tmp[n] = '0';
        n++;
    }
    while (v != 0) {
        unsigned long digit = v % base;
        if (digit < 10)
            tmp[n] = (char)('0' + digit);
        else if (upper)
            tmp[n] = (char)('A' + digit - 10);
        else
            tmp[n] = (char)('a' + digit - 10);
        n++;
        v /= base;
    }
    for (int i = 0; i < n; i++)
        out[i] = tmp[n - 1 - i];
    return n;
}

static int __fmt_double(double v, int prec, char *out)
{
    int n = 0;
    if (v != v) {
        out[0] = 'n'; out[1] = 'a'; out[2] = 'n';
        return 3;
    }
    if (v < 0) {
        out[n] = '-';
        n++;
        v = -v;
    }
    if (v > 9.2e18) {
        out[n] = 'i'; out[n + 1] = 'n'; out[n + 2] = 'f';
        return n + 3;
    }
    /* Round at the requested precision. */
    double round = 0.5;
    for (int i = 0; i < prec; i++)
        round /= 10.0;
    v += round;
    long ipart = (long)v;
    n += __fmt_ulong((unsigned long)ipart, 10, 0, out + n);
    if (prec > 0) {
        out[n] = '.';
        n++;
        double frac = v - (double)ipart;
        for (int i = 0; i < prec; i++) {
            frac *= 10.0;
            int digit = (int)frac;
            if (digit > 9)
                digit = 9;
            out[n] = (char)('0' + digit);
            n++;
            frac -= digit;
        }
    }
    return n;
}

static void __pad(struct __sink *sink, int count, char c)
{
    for (int i = 0; i < count; i++)
        __emit(sink, c);
}

static int __vformat(struct __sink *sink, const char *fmt, va_list ap)
{
    long i = 0;
    while (fmt[i] != 0) {
        char c = fmt[i];
        if (c != '%') {
            __emit(sink, c);
            i++;
            continue;
        }
        i++;
        /* Flags. */
        int left = 0;
        int zero = 0;
        int plus = 0;
        while (fmt[i] == '-' || fmt[i] == '0' || fmt[i] == '+' ||
               fmt[i] == ' ') {
            if (fmt[i] == '-')
                left = 1;
            else if (fmt[i] == '0')
                zero = 1;
            else if (fmt[i] == '+')
                plus = 1;
            i++;
        }
        /* Width. */
        int width = 0;
        while (isdigit((unsigned char)fmt[i])) {
            width = width * 10 + (fmt[i] - '0');
            i++;
        }
        /* Precision. */
        int prec = -1;
        if (fmt[i] == '.') {
            i++;
            prec = 0;
            while (isdigit((unsigned char)fmt[i])) {
                prec = prec * 10 + (fmt[i] - '0');
                i++;
            }
        }
        /* Length modifiers. */
        int longs = 0;
        while (fmt[i] == 'l' || fmt[i] == 'h' || fmt[i] == 'z') {
            if (fmt[i] == 'l' || fmt[i] == 'z')
                longs++;
            i++;
        }
        char spec = fmt[i];
        if (spec == 0)
            break;
        i++;

        char numbuf[64];
        int n = 0;
        if (spec == '%') {
            __emit(sink, '%');
            continue;
        } else if (spec == 'c') {
            int v = va_arg(ap, int);
            if (width > 1 && !left)
                __pad(sink, width - 1, ' ');
            __emit(sink, (char)v);
            if (width > 1 && left)
                __pad(sink, width - 1, ' ');
            continue;
        } else if (spec == 's') {
            const char *s = va_arg(ap, const char *);
            if (s == NULL)
                s = "(null)";
            long len = 0;
            if (prec >= 0) {
                while (len < prec && s[len] != 0)
                    len++;
            } else {
                len = (long)strlen(s);
            }
            if (width > len && !left)
                __pad(sink, (int)(width - len), ' ');
            __emit_str(sink, s, len);
            if (width > len && left)
                __pad(sink, (int)(width - len), ' ');
            continue;
        } else if (spec == 'd' || spec == 'i') {
            long v;
            if (longs > 0)
                v = va_arg(ap, long);
            else
                v = va_arg(ap, int);
            if (v < 0) {
                numbuf[n] = '-';
                n++;
                n += __fmt_ulong((unsigned long)(-v), 10, 0, numbuf + n);
            } else {
                if (plus) {
                    numbuf[n] = '+';
                    n++;
                }
                n += __fmt_ulong((unsigned long)v, 10, 0, numbuf + n);
            }
        } else if (spec == 'u') {
            unsigned long v;
            if (longs > 0)
                v = va_arg(ap, unsigned long);
            else
                v = va_arg(ap, unsigned int);
            n += __fmt_ulong(v, 10, 0, numbuf + n);
        } else if (spec == 'x' || spec == 'X') {
            unsigned long v;
            if (longs > 0)
                v = va_arg(ap, unsigned long);
            else
                v = va_arg(ap, unsigned int);
            n += __fmt_ulong(v, 16, spec == 'X', numbuf + n);
        } else if (spec == 'o') {
            unsigned long v;
            if (longs > 0)
                v = va_arg(ap, unsigned long);
            else
                v = va_arg(ap, unsigned int);
            n += __fmt_ulong(v, 8, 0, numbuf + n);
        } else if (spec == 'p') {
            void *v = va_arg(ap, void *);
            numbuf[0] = '0';
            numbuf[1] = 'x';
            n = 2 + __fmt_ulong((unsigned long)(uintptr_t)v, 16, 0,
                                numbuf + 2);
        } else if (spec == 'f' || spec == 'F' || spec == 'g' ||
                   spec == 'e') {
            double v = va_arg(ap, double);
            n = __fmt_double(v, prec >= 0 ? prec : 6, numbuf);
        } else {
            __emit(sink, '%');
            __emit(sink, spec);
            continue;
        }
        /* Common numeric padding path; zero padding goes after the
         * sign ("-002.500", not "00-2.500"). */
        int skip = 0;
        if (width > n && !left && zero &&
            (numbuf[0] == '-' || numbuf[0] == '+')) {
            __emit(sink, numbuf[0]);
            skip = 1;
        }
        if (width > n && !left)
            __pad(sink, width - n, zero ? '0' : ' ');
        __emit_str(sink, numbuf + skip, n - skip);
        if (width > n && left)
            __pad(sink, width - n, ' ');
    }
    return (int)sink->pos;
}

int printf(const char *fmt, ...)
{
    struct __sink sink = {1, NULL, 0, 0};
    va_list ap;
    va_start(ap, fmt);
    int n = __vformat(&sink, fmt, ap);
    va_end(ap);
    return n;
}

int fprintf(FILE *f, const char *fmt, ...)
{
    struct __sink sink = {0, NULL, 0, 0};
    sink.fd = f->fd;
    va_list ap;
    va_start(ap, fmt);
    int n = __vformat(&sink, fmt, ap);
    va_end(ap);
    return n;
}

int sprintf(char *buf, const char *fmt, ...)
{
    struct __sink sink = {-1, NULL, 0, 0};
    sink.buf = buf;
    sink.cap = 0x7fffffff;
    va_list ap;
    va_start(ap, fmt);
    int n = __vformat(&sink, fmt, ap);
    va_end(ap);
    buf[sink.pos < sink.cap ? sink.pos : sink.cap] = 0;
    return n;
}

int snprintf(char *buf, size_t size, const char *fmt, ...)
{
    struct __sink sink = {-1, NULL, 0, 0};
    sink.buf = buf;
    sink.cap = size > 0 ? (long)size - 1 : 0;
    va_list ap;
    va_start(ap, fmt);
    int n = __vformat(&sink, fmt, ap);
    va_end(ap);
    if (size > 0)
        buf[sink.pos < sink.cap ? sink.pos : sink.cap] = 0;
    return n;
}

/* ------------------------------------------------------------------ */
/* scanf family (stdin only): %d %u %ld %lu %c %s %f                   */
/* ------------------------------------------------------------------ */

int ungetc(int c, FILE *f)
{
    if (f->fd != 0 || c == EOF)
        return EOF;
    __scan_unget(c);
    return c;
}

/* Scan source: stdin (with persistent pushback) or a string buffer. */
struct __scansrc {
    const char *buf; /* NULL for stdin */
    long pos;
};

static int __src_get(struct __scansrc *src)
{
    if (src->buf == NULL)
        return __scan_get();
    char c = src->buf[src->pos];
    if (c == 0)
        return EOF;
    src->pos++;
    return (unsigned char)c;
}

static void __src_unget(struct __scansrc *src, int c)
{
    if (src->buf == NULL) {
        __scan_unget(c);
        return;
    }
    if (c != EOF)
        src->pos--;
}

static int __src_skip_space(struct __scansrc *src)
{
    int c = __src_get(src);
    while (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        c = __src_get(src);
    return c;
}

static int __vscan(struct __scansrc *src, const char *fmt, va_list ap)
{
    int converted = 0;
    long i = 0;
    while (fmt[i] != 0) {
        char f = fmt[i];
        if (isspace((unsigned char)f)) {
            int c = __src_get(src);
            while (isspace(c))
                c = __src_get(src);
            __src_unget(src, c);
            i++;
            continue;
        }
        if (f != '%') {
            int c = __src_get(src);
            if (c != f) {
                __src_unget(src, c);
                return converted;
            }
            i++;
            continue;
        }
        i++;
        int longs = 0;
        while (fmt[i] == 'l' || fmt[i] == 'h' || fmt[i] == 'z') {
            if (fmt[i] == 'l' || fmt[i] == 'z')
                longs++;
            i++;
        }
        char spec = fmt[i];
        if (spec == 0)
            break;
        i++;
        if (spec == 'd' || spec == 'i' || spec == 'u') {
            int c = __src_skip_space(src);
            int negative = 0;
            if (c == '-' || c == '+') {
                negative = c == '-';
                c = __src_get(src);
            }
            if (!isdigit(c)) {
                __src_unget(src, c);
                return converted;
            }
            long value = 0;
            while (isdigit(c)) {
                value = value * 10 + (c - '0');
                c = __src_get(src);
            }
            __src_unget(src, c);
            if (negative)
                value = -value;
            if (longs > 0) {
                long *out = va_arg(ap, long *);
                *out = value;
            } else {
                int *out = va_arg(ap, int *);
                *out = (int)value;
            }
            converted++;
        } else if (spec == 'c') {
            int c = __src_get(src);
            if (c == EOF)
                return converted;
            char *out = va_arg(ap, char *);
            *out = (char)c;
            converted++;
        } else if (spec == 's') {
            int c = __src_skip_space(src);
            if (c == EOF)
                return converted;
            char *out = va_arg(ap, char *);
            long n = 0;
            while (c != EOF && !isspace(c)) {
                out[n] = (char)c;
                n++;
                c = __src_get(src);
            }
            __src_unget(src, c);
            out[n] = 0;
            converted++;
        } else if (spec == 'f' || spec == 'g' || spec == 'e') {
            int c = __src_skip_space(src);
            char buf[64];
            long n = 0;
            while (c != EOF && n < 63 &&
                   (isdigit(c) || c == '-' || c == '+' || c == '.' ||
                    c == 'e' || c == 'E')) {
                buf[n] = (char)c;
                n++;
                c = __src_get(src);
            }
            __src_unget(src, c);
            if (n == 0)
                return converted;
            buf[n] = 0;
            double value = atof(buf);
            if (longs > 0 || spec == 'f') {
                /* scanf %f takes float*, %lf double*; we accept double*
                 * for both widths via the float pointer when unsized. */
            }
            if (longs > 0) {
                double *out = va_arg(ap, double *);
                *out = value;
            } else {
                float *out = va_arg(ap, float *);
                *out = (float)value;
            }
            converted++;
        } else {
            return converted;
        }
    }
    return converted;
}

int scanf(const char *fmt, ...)
{
    struct __scansrc src = {NULL, 0};
    va_list ap;
    va_start(ap, fmt);
    int n = __vscan(&src, fmt, ap);
    va_end(ap);
    return n;
}

int fscanf(FILE *f, const char *fmt, ...)
{
    if (f->fd != 0)
        return EOF;
    struct __scansrc src = {NULL, 0};
    va_list ap;
    va_start(ap, fmt);
    int n = __vscan(&src, fmt, ap);
    va_end(ap);
    return n;
}

int sscanf(const char *str, const char *fmt, ...)
{
    struct __scansrc src = {NULL, 0};
    src.buf = str;
    va_list ap;
    va_start(ap, fmt);
    int n = __vscan(&src, fmt, ap);
    va_end(ap);
    return n;
}

void perror(const char *s)
{
    /* No errno in this environment; print the prefix like glibc would. */
    if (s != NULL && s[0] != 0) {
        fputs(s, stderr);
        fputs(": error\n", stderr);
    } else {
        fputs("error\n", stderr);
    }
}

int putc(int c, FILE *f) { return fputc(c, f); }
int getc(FILE *f) { return fgetc(f); }
)C";

} // namespace

std::vector<SourceFile>
libcSources(LibcVariant variant)
{
    std::vector<SourceFile> sources;
    sources.push_back(SourceFile{"libc/prelude.c", PRELUDE});
    sources.push_back(SourceFile{"libc/ctype.c", CTYPE_C});
    if (variant == LibcVariant::nativeOptimized) {
        // The optimized variant overrides strlen/strcmp with word-wise
        // code; the remaining functions reuse the safe implementations
        // (with the optimized symbols winning by earlier definition).
        std::string optimized = STRING_OPT_PREFIX;
        std::string safe = STRING_SAFE_C;
        // Drop the safe strlen/strcmp definitions to avoid redefinition.
        auto dropFunction = [&safe](const std::string &header) {
            size_t start = safe.find(header);
            if (start == std::string::npos)
                return;
            size_t brace = safe.find('{', start);
            int depth = 1;
            size_t end = brace + 1;
            while (depth > 0 && end < safe.size()) {
                if (safe[end] == '{')
                    depth++;
                else if (safe[end] == '}')
                    depth--;
                end++;
            }
            safe.erase(start, end - start);
        };
        dropFunction("size_t strlen(const char *s)");
        dropFunction("int strcmp(const char *a, const char *b)");
        sources.push_back(SourceFile{"libc/string_opt.c",
                                     optimized + safe});
    } else {
        sources.push_back(SourceFile{"libc/string.c", STRING_SAFE_C});
    }
    sources.push_back(SourceFile{"libc/stdlib.c", STDLIB_C});
    sources.push_back(SourceFile{"libc/stdio.c", STDIO_C});
    return sources;
}

namespace
{

const LibraryPrototype *
buildPrototype()
{
    MS_TRACE_SPAN("frontend.libc_prototype");
    obs::MetricsRegistry::global().counter("frontend.libc_prototypes").inc();
    // Never destroyed: threads still running at exit may use it.
    return new LibraryPrototype(libcSources);
}

} // namespace

const LibraryPrototype &
libcPrototype()
{
    static const LibraryPrototype *prototype = buildPrototype();
    return *prototype;
}

std::vector<std::string>
libcFunctionNames()
{
    return {
        "isdigit", "isupper", "islower", "isalpha", "isalnum", "isspace",
        "isxdigit", "isprint", "ispunct", "iscntrl", "toupper", "tolower",
        "strlen", "strcpy", "strncpy", "strcat", "strncat", "strcmp",
        "strncmp", "strchr", "strrchr", "strstr", "strspn", "strcspn",
        "strpbrk", "strtok", "strdup", "memset", "memcpy", "memmove",
        "memcmp", "memchr",
        "exit", "abort", "abs", "labs", "srand", "rand", "strtol", "atoi",
        "atol", "atof", "qsort", "bsearch",
        "strnlen", "strcasecmp", "strncasecmp", "bzero",
        "strtoul", "strtod", "atoll", "llabs",
        "putchar", "getchar", "fputc", "fputs", "puts", "fwrite", "fgetc",
        "fgets", "printf", "fprintf", "sprintf", "snprintf", "scanf",
        "fscanf", "sscanf", "ungetc", "putc", "getc", "perror",
        "malloc", "free", "calloc", "realloc",
        "sqrt", "sin", "cos", "tan", "atan", "atan2", "exp", "log", "pow",
        "floor", "ceil", "fabs", "fmod",
    };
}

} // namespace sulong
